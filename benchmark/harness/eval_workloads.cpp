// The two Table II corpus-evaluation workloads, over kEvalPrograms held-out
// programs, greedy:
//
//   corpus_eval          core::evaluate_model in this process: waves decode
//                        in parallel across the pool, then score_example.
//                        Set-up is load_world_snapshot + warm_cache (median
//                        of kSetupRepeats); one untimed warm trial gives the
//                        reference summary every timed trial must match bit
//                        for bit.
//   corpus_eval_sharded  the same programs through
//                        shard::evaluate_sharded_processes with 2 worker
//                        processes of this binary over pipes, snapshot by
//                        path, workers at MPIRICAL_THREADS=1. Every trial
//                        spawns fresh workers; set-up is this process's
//                        snapshot write plus the slowest worker start-up.
//                        The merged summary must be bit-identical to the
//                        in-process evaluate_model on the same programs,
//                        which is what corpus_eval measures.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "common.hpp"
#include "core/world_snapshot.hpp"
#include "nn/packed_model.hpp"
#include "obs/recorder.hpp"
#include "shard/eval.hpp"
#include "shard/partition.hpp"
#include "support/check.hpp"

namespace mpbench {
namespace {

namespace obs = mpirical::obs;
namespace nn = mpirical::nn;
namespace shard = mpirical::shard;

double phase_ms(const obs::StatsSnapshot& s, const char* path) {
  const obs::PhaseStat* p = s.find_phase(path);
  return p != nullptr ? p->total_ms() : 0.0;
}

std::uint64_t prediction_tokens(
    const std::vector<core::ExamplePrediction>& predictions) {
  std::uint64_t tokens = 0;
  for (const auto& p : predictions) tokens += output_tokens(p.predicted_code);
  return tokens;
}

/// A trial is one whole evaluation of the programs: its wall time is the
/// latency a researcher waits, and throughput is examples per median trial.
void trial_metrics(const std::vector<double>& trial_ms, std::size_t examples,
                   Result& r) {
  const double p50 = percentile(trial_ms, 0.5);
  r.e2e.num("latency_p50_ms", p50)
      .num("latency_p95_ms", percentile(trial_ms, 0.95))
      .num("throughput_per_s", static_cast<double>(examples) * 1e3 / p50);
  r.unit_ms_mean = mean(trial_ms);
  std::string samples;
  for (const double ms : trial_ms) {
    samples += (samples.empty() ? "" : ",") + std::to_string(ms);
  }
  r.record.raw("trial_ms", "[" + samples + "]");
}

}  // namespace

Result run_corpus_eval(const Options& opt) {
  Result r;
  const std::string world_path = opt.out_dir + "/eval_world.mpsn";
  std::vector<core::ExamplePrediction> predictions;
  std::string reference_bits;
  {
    // The untimed warm trial comes first: it gives the reference every
    // timed trial must match, and brings the cores up to speed before the
    // set-up is timed.
    const core::World fixture =
        core::load_world_snapshot(fixture_model_path(opt.fixture_dir));
    const std::vector<corpus::Example> programs =
        workload_programs(opt.seed, kEvalPrograms);
    reference_bits = summary_bits(
        core::evaluate_model(fixture.model, programs, 1, 1, &predictions));
    core::write_eval_snapshot(world_path, fixture.model, programs);
  }

  // Set-up: what a researcher pays to get from the file to a ready model.
  std::vector<double> setup_ms, load_ms, pack_ms;
  std::uint64_t pack_misses = 0;
  std::optional<core::World> world;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    const Clock::time_point t0 = Clock::now();
    world.emplace(core::load_world_snapshot(world_path));
    const Clock::time_point t1 = Clock::now();
    const nn::PackCacheStats before = nn::pack_cache_stats();
    nn::PackedModel::warm_cache(world->model.transformer());
    const Clock::time_point t2 = Clock::now();
    const nn::PackCacheStats after = nn::pack_cache_stats();
    setup_ms.push_back(ms_between(t0, t2));
    load_ms.push_back(ms_between(t0, t1));
    pack_ms.push_back(static_cast<double>(after.pack_ns - before.pack_ns) / 1e6);
    pack_misses = after.misses - before.misses;
  }
  r.e2e.num("setup_s", percentile(setup_ms, 0.5) / 1e3);
  r.layers.num("snapshot.load_ms", percentile(load_ms, 0.5))
      .num("nn.pack_ms", percentile(pack_ms, 0.5))
      .count("nn.pack_misses", pack_misses);

  const core::MpiRical& model = world->model;
  const std::vector<corpus::Example>& split = world->eval;

  obs::Recorder& rec = obs::Recorder::global();
  if (trace::on()) rec.set_enabled(true);
  const std::size_t trials = eval_trials(opt.seconds, kEvalTrialSeconds);
  std::vector<double> trial_ms;
  double decode_ms = 0, wave_encode_ms = 0, wave_decode_ms = 0, score_ms = 0;
  std::uint64_t pass = 0;
  Clock::time_point first;
  for (std::size_t t = 0; t < trials; ++t) {
    rec.reset();
    const Clock::time_point start = Clock::now();
    const core::EvalSummary summary = core::evaluate_model(model, split);
    const Clock::time_point end = Clock::now();
    trial_ms.push_back(ms_between(start, end));
    if (summary_bits(summary) != reference_bits) {
      r.fail("corpus_eval trial " + std::to_string(t) +
             " quality fields differ from the warm trial");
      r.failed += split.size();
    }
    if (trace::on()) {
      const obs::StatsSnapshot s = rec.snapshot();
      decode_ms += phase_ms(s, "eval/decode");
      score_ms += phase_ms(s, "eval/score");
      wave_encode_ms += phase_ms(s, "nn/wave/encode");
      wave_decode_ms += phase_ms(s, "nn/wave/decode");
      if (t == 0) {
        pass = trace::new_id();
        first = start;
      }
      const std::uint64_t id = trace::new_id();
      trace::span(id, "core.evaluate_model", "core", start, end, pass, t);
      trace::derived(id, "eval.decode", "nn", phase_ms(s, "eval/decode"));
      trace::derived(id, "eval.score", "metrics", phase_ms(s, "eval/score"));
      if (t + 1 == trials) {
        trace::span(pass, "corpus_eval.pass", "pass", first, end, 0, 0);
      }
    }
  }
  rec.set_enabled(false);
  r.attempted = trials * split.size();
  trial_metrics(trial_ms, split.size(), r);
  r.e2e.num("peak_rss_mb", peak_rss_mb(RUSAGE_SELF));
  if (trace::on()) {
    r.layers.num("eval.decode_ms.total", decode_ms)
        .num("nn.wave_encode_ms.total", wave_encode_ms)
        .num("nn.wave_decode_ms.total", wave_decode_ms)
        .num("metrics.score_ms.total", score_ms);
  }
  r.record.str("quality_bits", reference_bits)
      .count("nn_tokens", prediction_tokens(predictions))
      .count("trials", trials);
  return r;
}

Result run_corpus_eval_sharded(const Options& opt,
                               const core::MpiRical& model) {
  Result r;
  const std::vector<corpus::Example> split =
      workload_programs(opt.seed, kEvalPrograms);
  std::vector<core::ExamplePrediction> predictions;
  const std::string reference_bits =
      summary_bits(core::evaluate_model(model, split, 1, 1, &predictions));

  // Workers inherit this environment: one pool thread each, so two workers
  // plus their calling threads fill the four cores.
  ::setenv("MPIRICAL_THREADS", "1", 1);
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  MR_CHECK(len > 0, "readlink(/proc/self/exe) failed");
  exe[len] = '\0';
  shard::set_worker_self_exec(exe);
  shard::ShardOptions options;
  options.shards = 2;

  const std::size_t trials = eval_trials(opt.seconds, kShardTrialSeconds);
  std::vector<double> trial_ms, setup_ms;
  double snapshot_write_ms = 0, startup_max = 0, load_max = 0;
  double grant_wait_ms = 0, chunk_eval_ms = 0, rtt_max = 0;
  std::uint64_t rtt_count = 0, rtt_ns = 0, bytes_sent = 0, bytes_received = 0;
  std::uint64_t reassigned = 0, stolen = 0;
  std::uint64_t pass = 0;
  Clock::time_point first;
  for (std::size_t t = 0; t < trials; ++t) {
    shard::ShardRunStats st;
    const Clock::time_point start = Clock::now();
    const core::EvalSummary summary =
        shard::evaluate_sharded_processes(model, split, options, nullptr, &st);
    const Clock::time_point end = Clock::now();
    trial_ms.push_back(ms_between(start, end));
    if (summary_bits(summary) != reference_bits) {
      r.fail("corpus_eval_sharded trial " + std::to_string(t) +
             " merged summary differs from the in-process evaluate_model");
      r.failed += split.size();
    }
    double slowest = 0.0;
    for (std::size_t w = 0; w < st.worker_startup_ms.size(); ++w) {
      if (st.worker_startup_ms[w] < 0.0) {
        r.fail("a shard worker never reported its start-up");
      }
      slowest = std::max(slowest, st.worker_startup_ms[w]);
      load_max = std::max(load_max, st.worker_load_ms[w]);
    }
    startup_max = std::max(startup_max, slowest);
    setup_ms.push_back(st.snapshot_write_ms + slowest);
    snapshot_write_ms += st.snapshot_write_ms;
    rtt_count += st.grant_rtt.count;
    rtt_ns += st.grant_rtt.total_ns;
    rtt_max = std::max(rtt_max, st.grant_rtt.max_ms());
    bytes_sent += st.bytes_sent;
    bytes_received += st.bytes_received;
    reassigned += st.reassigned_chunks;
    stolen += st.stolen_chunks;
    for (const auto& p : st.worker_phases) {
      if (p.path == "grant_wait") grant_wait_ms += p.total_ms();
      if (p.path == "chunk_eval") chunk_eval_ms += p.total_ms();
    }
    // Chunks a dead worker lost were re-run elsewhere; count their examples
    // as failed attempts even though the merge stayed complete.
    r.failed += std::min<std::uint64_t>(
        split.size(), st.reassigned_chunks * shard::decode_wave_size());
    if (trace::on()) {
      if (t == 0) {
        pass = trace::new_id();
        first = start;
      }
      const std::uint64_t id = trace::new_id();
      trace::span(id, "shard.evaluate_sharded_processes", "shard", start, end,
                  pass, t);
      trace::derived(id, "shard.snapshot_write", "snapshot",
                     st.snapshot_write_ms);
      if (t + 1 == trials) {
        trace::span(pass, "corpus_eval_sharded.pass", "pass", first, end, 0, 0);
      }
    }
  }
  r.attempted = trials * split.size();
  trial_metrics(trial_ms, split.size(), r);
  r.e2e.num("setup_s", percentile(setup_ms, 0.5) / 1e3)
      .num("peak_rss_mb", peak_rss_mb(RUSAGE_CHILDREN));
  r.layers.num("shard.snapshot_write_ms", snapshot_write_ms / trials)
      .num("shard.worker_startup_ms.max", startup_max)
      .num("shard.worker_load_ms.max", load_max)
      .num("shard.grant_rtt_ms.mean",
           rtt_count > 0 ? static_cast<double>(rtt_ns) / 1e6 / rtt_count : 0.0)
      .num("shard.grant_rtt_ms.max", rtt_max)
      .num("shard.worker.grant_wait_ms.total", grant_wait_ms)
      .num("shard.worker.chunk_eval_ms.total", chunk_eval_ms)
      .count("shard.bytes_sent", bytes_sent)
      .count("shard.bytes_received", bytes_received)
      .count("shard.reassigned_chunks", reassigned)
      .count("shard.stolen_chunks", stolen);
  r.record.str("quality_bits", reference_bits)
      .count("nn_tokens", prediction_tokens(predictions))
      .count("trials", trials);
  return r;
}

}  // namespace mpbench
