// mpirical_bench: the benchmark harness behind benchmark/run.py.
//
//   mpirical_bench fixture <dir>
//       Builds the fixed model every run measures: corpus::build_dataset
//       (320 programs, seed 42), MpiRical::create + train for one epoch with
//       bench_common's model config, then <dir>/world.mpsn (the dataset
//       snapshot, whose FNV-1a-64 fingerprints the fixture) and
//       <dir>/model.mpsn (the model alone, what the daemon serves).
//   mpirical_bench selftest
//       Checks the harness itself: nearest-rank percentiles, and that the
//       seeded request plans repeat for a seed and differ across seeds.
//   mpirical_bench run <workload> --seed N --seconds S --fixture <dir>
//                      --out <dir> [--short] [--traced]
//       Runs one workload pass and writes <out>/result.json. --short uses the
//       workload's fixed traced-run length instead of --seconds; --traced
//       also records spans (<out>/spans.jsonl) and turns the phase recorder
//       on in every process under test.
//   mpirical_bench probe --seed N --fixture <dir> --out <dir>
//       The per-layer probe of a traced run (probes.cpp).
//
// Launched as a shard worker (MPIRICAL_EVAL_SHARD_ROLE=worker) it serves
// chunks for corpus_eval_sharded instead.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench_common.hpp"
#include "common.hpp"
#include "core/world_snapshot.hpp"
#include "shard/partition.hpp"
#include "support/check.hpp"
#include "support/io.hpp"

extern char** environ;

namespace mpbench {
namespace {

void make_fixture(const std::string& dir) {
  corpus::DatasetConfig dcfg = mpirical::bench::default_dataset_config();
  dcfg.corpus_size = 320;
  dcfg.seed = 42;
  const corpus::Dataset dataset = corpus::build_dataset(dcfg);
  core::ModelConfig mcfg = mpirical::bench::default_model_config();
  mcfg.epochs = 1;
  core::MpiRical model = core::MpiRical::create(dataset, mcfg);
  model.train(dataset, [](const core::EpochLog& log) {
    std::fprintf(stderr, "[fixture] epoch %d train_loss %.4f (%.1f s)\n",
                 log.epoch, log.train_loss, log.seconds);
  });
  // Written under temporary names and renamed, so an interrupted build never
  // leaves a half-written fixture behind.
  core::write_dataset_snapshot(fixture_world_path(dir) + ".tmp", model, dataset);
  core::write_eval_snapshot(fixture_model_path(dir) + ".tmp", model, {});
  MR_CHECK(std::rename((fixture_model_path(dir) + ".tmp").c_str(),
                       fixture_model_path(dir).c_str()) == 0 &&
               std::rename((fixture_world_path(dir) + ".tmp").c_str(),
                           fixture_world_path(dir).c_str()) == 0,
           "cannot move the fixture into place");
  std::fprintf(stderr, "[fixture] %zu examples, fingerprint %s\n",
               dataset.example_count(),
               hex64(fnv1a64_of(mpirical::io::read_file(
                         fixture_world_path(dir))))
                   .c_str());
}

int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  // Nearest rank: the smallest value with at least p of the sample at or
  // below it.
  expect(percentile({5.0}, 0.5) == 5.0, "p50 of one sample");
  expect(percentile({4, 1, 3, 2}, 0.5) == 2.0, "p50 of 1..4 is 2");
  expect(percentile({4, 1, 3, 2}, 0.95) == 4.0, "p95 of 1..4 is 4");
  expect(percentile({4, 1, 3, 2}, 0.0) == 1.0, "p0 is the minimum");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 0.95) == 95.0, "p95 of 1..100 is 95");
  expect(percentile(hundred, 0.5) == 50.0, "p50 of 1..100 is 50");

  // The seeded request plans: the same seed gives the same requests,
  // another seed other ones, and no program is sent twice.
  auto codes = [](const std::vector<corpus::Example>& programs) {
    std::vector<std::string> out;
    for (const auto& ex : programs) out.push_back(ex.input_code);
    return out;
  };
  const AssistPlan a = make_assist_plan(1, 2.0);
  std::vector<std::string> sent = codes(a.programs);
  expect(sent == codes(make_assist_plan(1, 2.0).programs),
         "same seed gives the same assist requests");
  expect(sent != codes(make_assist_plan(2, 2.0).programs),
         "another seed gives other assist requests");
  for (const std::string& w : codes(a.warmup)) sent.push_back(w);
  std::sort(sent.begin(), sent.end());
  expect(std::adjacent_find(sent.begin(), sent.end()) == sent.end(),
         "assist sends every program once, warm-up included");
  expect(codes(saturate_programs(1, 1.0)) == codes(saturate_programs(1, 1.0)),
         "same seed gives the same serve_saturate requests");
  expect(codes(saturate_programs(1, 1.0)) != codes(saturate_programs(2, 1.0)),
         "another seed gives other serve_saturate requests");

  std::fprintf(stderr, "selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string pinned_env() {
  std::vector<std::string> vars;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MPIRICAL_", 9) == 0) vars.emplace_back(*e);
  }
  std::sort(vars.begin(), vars.end());
  std::string out;
  for (const auto& v : vars) out += (out.empty() ? "" : " ") + v;
  return out;
}

void write_result(const Options& opt, Result& r, const std::string& env) {
  r.record.str("fixture_fnv", hex64(fnv1a64_of(mpirical::io::read_file(
                                  fixture_world_path(opt.fixture_dir)))))
      .count("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .str("cpu", cpu_model())
      .str("mpirical_env", env)
      .count("wave", mpirical::shard::decode_wave_size())
      .str("cxx_flags", MPIRICAL_BENCH_CXX_FLAGS);
  std::string errors = "[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    errors += (i ? "," : "") + json_string(r.errors[i]);
  }
  errors += "]";
  const std::string json = JsonObject()
                               .str("workload", opt.workload)
                               .count("seed", opt.seed)
                               .num("seconds", opt.seconds)
                               .flag("traced", opt.traced)
                               .count("attempted", r.attempted)
                               .count("failed", r.failed)
                               .raw("errors", errors)
                               .raw("e2e", r.e2e.dump())
                               .raw("layers", r.layers.dump())
                               .raw("record", r.record.dump())
                               .num("unit_ms_mean", r.unit_ms_mean)
                               .dump();
  mpirical::io::write_file(opt.out_dir + "/result.json", json + "\n");
  if (opt.traced) trace::write(opt.out_dir + "/spans.jsonl");
}

Options parse_options(int argc, char** argv, int first, bool& short_pass) {
  Options opt;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      MR_CHECK(i + 1 < argc, arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--fixture") {
      opt.fixture_dir = value();
    } else if (arg == "--out") {
      opt.out_dir = value();
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--short") {
      short_pass = true;
    } else {
      MR_CHECK(false, "unexpected argument: " + arg);
    }
  }
  MR_CHECK(!opt.fixture_dir.empty() && !opt.out_dir.empty(),
           "--fixture and --out are required");
  MR_CHECK(opt.seconds > 0.0, "--seconds must be positive");
  return opt;
}

int run(int argc, char** argv) {
  MR_CHECK(argc >= 2, "usage: mpirical_bench fixture|selftest|run|probe ...");
  const std::string mode = argv[1];
  if (mode == "fixture") {
    MR_CHECK(argc == 3, "usage: mpirical_bench fixture <dir>");
    make_fixture(argv[2]);
    return 0;
  }
  if (mode == "selftest") return selftest();

  const std::string env = pinned_env();
  bool short_pass = false;
  Options opt;
  if (mode == "probe") {
    opt = parse_options(argc, argv, 2, short_pass);
    opt.workload = "probe";
  } else {
    MR_CHECK(mode == "run" && argc >= 3, "unknown mode: " + mode);
    opt = parse_options(argc, argv, 3, short_pass);
    opt.workload = argv[2];
    if (short_pass) {
      opt.seconds = traced_seconds(opt.workload);
    } else if (opt.workload == "serve_saturate") {
      opt.seconds = std::max(opt.seconds, kMinTailSamples / kSaturateRate);
    }
  }
  if (opt.traced) trace::enable();

  Result r;
  if (opt.workload == "corpus_eval") {
    r = run_corpus_eval(opt);
  } else {
    const core::World world =
        core::load_world_snapshot(fixture_model_path(opt.fixture_dir));
    if (opt.workload == "probe") {
      r = run_probe(opt, world.model);
    } else if (opt.workload == "assist") {
      r = run_assist(opt, world.model);
    } else if (opt.workload == "serve_saturate") {
      r = run_serve_saturate(opt, world.model);
    } else if (opt.workload == "corpus_eval_sharded") {
      r = run_corpus_eval_sharded(opt, world.model);
    } else {
      MR_CHECK(false, "unknown workload: " + opt.workload);
    }
  }
  write_result(opt, r, env);
  return 0;
}

}  // namespace
}  // namespace mpbench

int main(int argc, char** argv) {
  // Re-exec'd shard worker of corpus_eval_sharded: serve chunks and leave.
  if (mpirical::bench::maybe_run_eval_shard_worker()) return 0;
  try {
    return mpbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpirical_bench: %s\n", e.what());
    return 1;
  }
}
