// Shared pieces of the benchmark harness: workload inputs and request plans
// drawn from the workload seed, the benchmark-side span trace, the result
// writer, and the statistics helpers the self-test pins.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "core/model.hpp"
#include "corpus/dataset.hpp"

namespace mpbench {

namespace core = mpirical::core;
namespace corpus = mpirical::corpus;
using Clock = std::chrono::steady_clock;

/// One harness invocation (see main.cpp for the command line).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string fixture_dir;  // world.mpsn (the fixture) + model.mpsn
  std::string out_dir;      // result.json, plus trace files when traced
  bool traced = false;
};

std::string fixture_world_path(const std::string& fixture_dir);
std::string fixture_model_path(const std::string& fixture_dir);

// ---- JSON output -------------------------------------------------------------

/// Minimal JSON object builder. Numbers keep every digit (%.17g).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& count(const std::string& key, std::uint64_t value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& flag(const std::string& key, bool value);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_string(const std::string& s);

/// What one workload pass measured. main.cpp adds the machine record and
/// writes it to <out_dir>/result.json; benchmark/run.py turns it into the
/// result line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // correctness-gate failures
  JsonObject e2e;                   // end-to-end metrics
  JsonObject layers;                // per-layer metrics of this pass
  JsonObject record;                // quality bits, token counts
  double unit_ms_mean = 0.0;        // mean time of one unit of work

  void fail(const std::string& why) { errors.push_back(why); }
};

// ---- benchmark-side span trace -----------------------------------------------

/// Spans (name, layer, start, end, parent, request id) around the harness's
/// calls into the system, kept in memory and written as JSON lines when the
/// pass ends. Off unless the pass is traced; recording from several threads
/// is safe.
namespace trace {
void enable();
bool on();
std::uint64_t new_id();
void span(std::uint64_t id, const char* name, const char* layer,
          Clock::time_point start, Clock::time_point end, std::uint64_t parent,
          std::uint64_t request);
/// A child of `parent` known only as a total (a recorder phase that runs on
/// the parent's thread inside the parent's interval).
void derived(std::uint64_t parent, const char* name, const char* layer,
             double ms);
void write(const std::string& path);
}  // namespace trace

// ---- statistics --------------------------------------------------------------

/// Nearest-rank percentile (bench::percentile) of an unsorted sample.
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double>& values);
double ms_between(Clock::time_point a, Clock::time_point b);

// ---- inputs --------------------------------------------------------------------

/// `count` distinct programs (by input code) from corpus::build_dataset with
/// a dataset seed derived from the workload seed (never the fixture's 42),
/// all splits pooled and shuffled by the workload seed.
std::vector<corpus::Example> workload_programs(std::uint64_t seed,
                                               std::size_t count);

/// The greedy translate_batch oracle: outputs[i] is what programs[i] must
/// decode to. Computed in a forked child, so call it while this process has
/// no other thread. The serving workloads call it before generating load:
/// the load generator never owns a thread pool, and the oracle's seconds of
/// work on every core bring the machine up to speed before anything is
/// timed (on the VMs this benchmark was tuned on, cores idle for a while
/// run their first second of work at about half speed).
std::vector<std::string> oracle_outputs(
    const core::MpiRical& model,
    const std::vector<core::MpiRical::TranslateRequest>& programs);

/// Decoded tokens in a predicted program (the inverse of tokens_to_code).
std::uint64_t output_tokens(const std::string& code);

std::string hex64(std::uint64_t v);
std::uint64_t fnv1a64_of(const std::string& bytes);
/// Raw IEEE-754 bits of every Table II field, as hex, for bitwise checks.
std::string summary_bits(const core::EvalSummary& s);

/// Peak resident set (ru_maxrss) in MiB of RUSAGE_SELF or RUSAGE_CHILDREN.
double peak_rss_mb(int who);

// ---- workloads -------------------------------------------------------------------

// Nominal rates that turn --seconds into a fixed amount of work, so two
// builds given the same --seconds do the same work.
constexpr double kAssistRate = 20.0;       // requests per second of run
constexpr double kSaturateRate = 30.0;     // requests per second of run
constexpr std::size_t kSaturateConns = 4;  // closed-loop connections
constexpr std::size_t kSaturateDepth = 8;  // pipelined requests each
constexpr std::size_t kEvalPrograms = 128;
constexpr double kEvalTrialSeconds = 1.25; // one corpus_eval trial
constexpr double kShardTrialSeconds = 2.5; // one corpus_eval_sharded trial
constexpr std::size_t kSetupRepeats = 9;
/// Requests a full serve_saturate pass sends at least, so that its p95 has
/// ten samples beyond it.
constexpr double kMinTailSamples = 200.0;

/// The programs one assist pass sends, in order. No program repeats: no
/// measured share of repeated requests exists to copy. The warm-up programs,
/// distinct from those, go out untimed first.
constexpr std::size_t kWarmupRequests = 4;
struct AssistPlan {
  std::vector<corpus::Example> programs;
  std::vector<corpus::Example> warmup;
};
AssistPlan make_assist_plan(std::uint64_t seed, double seconds);

/// The programs one serve_saturate pass sends, in send order: distinct, all
/// greedy (beam width 1, the default of MpiRical::suggest, serve::Client and
/// evaluate_model).
std::vector<corpus::Example> saturate_programs(std::uint64_t seed,
                                               double seconds);

std::size_t eval_trials(double seconds, double trial_seconds);

/// Fixed length of each workload's passes in a traced run (--short), so the
/// traced and untraced passes, and the probe's replay, do the same work.
double traced_seconds(const std::string& workload);

/// A copy of MpiRical::suggest's front end: standardize the program, derive
/// its X-SBT. suggest() offers no public call for this step alone, so a
/// change to suggest's own front end does not show in assist until it has
/// one and this copy calls it.
core::MpiRical::TranslateRequest front_end(const std::string& serial_code);

Result run_assist(const Options& opt, const core::MpiRical& model);
Result run_serve_saturate(const Options& opt, const core::MpiRical& model);
Result run_corpus_eval(const Options& opt);
Result run_corpus_eval_sharded(const Options& opt, const core::MpiRical& model);
/// The layer probe: kernel shape sweep, decode-step and encoder timings, and
/// the exact step/token counts of every traced pass's requests.
Result run_probe(const Options& opt, const core::MpiRical& model);

}  // namespace mpbench
