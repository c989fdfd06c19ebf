#include "common.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_set>

#include "bench_common.hpp"
#include "cast/printer.hpp"
#include "cparse/parser.hpp"
#include "snapshot/snapshot.hpp"
#include "support/check.hpp"
#include "support/io.hpp"
#include "support/rng.hpp"
#include "toklib/vocab.hpp"
#include "xsbt/xsbt.hpp"

namespace mpbench {

std::string fixture_world_path(const std::string& dir) {
  return dir + "/world.mpsn";
}
std::string fixture_model_path(const std::string& dir) {
  return dir + "/model.mpsn";
}

// ---- JSON ------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += json_string(k) + ":";
}

JsonObject& JsonObject::num(const std::string& k, double value) {
  key(k);
  if (!std::isfinite(value)) {
    body_ += "null";
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    body_ += buf;
  }
  return *this;
}

JsonObject& JsonObject::count(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::flag(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

// ---- trace -----------------------------------------------------------------

namespace trace {
namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<std::string> g_lines;  // guarded by g_mu
const Clock::time_point g_epoch = Clock::now();

std::int64_t ns_since_epoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

}  // namespace

void enable() { g_on.store(true); }
bool on() { return g_on.load(std::memory_order_relaxed); }
std::uint64_t new_id() { return g_next_id.fetch_add(1); }

void span(std::uint64_t id, const char* name, const char* layer,
          Clock::time_point start, Clock::time_point end, std::uint64_t parent,
          std::uint64_t request) {
  if (!on()) return;
  const std::string line =
      JsonObject()
          .str("kind", "span")
          .count("id", id)
          .str("name", name)
          .str("layer", layer)
          .count("start_ns", static_cast<std::uint64_t>(ns_since_epoch(start)))
          .count("end_ns", static_cast<std::uint64_t>(ns_since_epoch(end)))
          .count("parent", parent)
          .count("req", request)
          .dump();
  std::lock_guard<std::mutex> lock(g_mu);
  g_lines.push_back(line);
}

void derived(std::uint64_t parent, const char* name, const char* layer,
             double ms) {
  if (!on()) return;
  const std::string line = JsonObject()
                               .str("kind", "derived")
                               .count("parent", parent)
                               .str("name", name)
                               .str("layer", layer)
                               .num("ms", ms)
                               .dump();
  std::lock_guard<std::mutex> lock(g_mu);
  g_lines.push_back(line);
}

void write(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::string out;
  for (const auto& line : g_lines) out += line + "\n";
  mpirical::io::write_file(path, out);
}

}  // namespace trace

// ---- statistics ------------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return mpirical::bench::percentile(values, p);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- inputs ----------------------------------------------------------------

std::vector<corpus::Example> workload_programs(std::uint64_t seed,
                                               std::size_t count) {
  corpus::DatasetConfig config;
  config.seed = 1000 + seed;
  config.max_tokens = 320;
  // About 60% of generated programs pass the parse and token gates, and a
  // few repeat; grow the corpus until enough distinct ones remain.
  for (config.corpus_size = 2 * count + 64;; config.corpus_size *= 2) {
    corpus::Dataset dataset = corpus::build_dataset(config);
    std::vector<corpus::Example> pool;
    for (auto* split : {&dataset.train, &dataset.val, &dataset.test}) {
      for (auto& ex : *split) pool.push_back(std::move(ex));
    }
    std::sort(pool.begin(), pool.end(),
              [](const corpus::Example& a, const corpus::Example& b) {
                return a.id < b.id;
              });
    mpirical::Rng rng(seed);
    rng.shuffle(pool);
    std::vector<corpus::Example> out;
    std::unordered_set<std::string> seen;
    for (auto& ex : pool) {
      if (out.size() == count) break;
      if (seen.insert(ex.input_code).second) out.push_back(std::move(ex));
    }
    if (out.size() == count) return out;
    MR_CHECK(config.corpus_size < 64 * (count + 64),
             "workload seed " + std::to_string(seed) +
                 " yields too few distinct programs");
  }
}

std::vector<std::string> oracle_outputs(
    const core::MpiRical& model,
    const std::vector<core::MpiRical::TranslateRequest>& programs) {
  int fds[2];
  MR_CHECK(::pipe(fds) == 0, "pipe() failed");
  const pid_t pid = ::fork();
  MR_CHECK(pid >= 0, "fork() failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      std::string payload;
      for (const auto& s : model.translate_batch(programs)) {
        const std::uint64_t len = s.size();
        payload.append(reinterpret_cast<const char*>(&len), sizeof(len));
        payload += s;
      }
      for (std::size_t off = 0; off < payload.size();) {
        const ssize_t w = ::write(fds[1], payload.data() + off,
                                  payload.size() - off);
        if (w < 0 && errno == EINTR) continue;
        if (w <= 0) throw mpirical::Error("oracle pipe write failed");
        off += static_cast<std::size_t>(w);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "oracle: %s\n", e.what());
      code = 1;
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string payload;
  char buf[65536];
  for (;;) {
    const ssize_t got = ::read(fds[0], buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    payload.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  MR_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
           "the oracle process failed");
  std::vector<std::string> out;
  for (std::size_t off = 0; off < payload.size();) {
    std::uint64_t len = 0;
    MR_CHECK(payload.size() - off >= sizeof(len), "truncated oracle output");
    std::memcpy(&len, payload.data() + off, sizeof(len));
    off += sizeof(len);
    MR_CHECK(payload.size() - off >= len, "truncated oracle output");
    out.push_back(payload.substr(off, len));
    off += len;
  }
  MR_CHECK(out.size() == programs.size(), "oracle output count mismatch");
  return out;
}

std::uint64_t output_tokens(const std::string& code) {
  return mpirical::tok::code_to_tokens(code).size();
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a64_of(const std::string& bytes) {
  return mpirical::snapshot::fnv1a64(bytes.data(), bytes.size());
}

namespace {
std::string double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return hex64(bits);
}
}  // namespace

std::string summary_bits(const core::EvalSummary& s) {
  std::string out;
  for (const auto* prf : {&s.m_counts, &s.mcc_counts}) {
    out += std::to_string(prf->tp) + "/" + std::to_string(prf->fp) + "/" +
           std::to_string(prf->fn) + " ";
  }
  for (const double v : {s.bleu, s.meteor, s.rouge_l, s.acc}) {
    out += double_bits(v) + " ";
  }
  return out + std::to_string(s.examples);
}

double peak_rss_mb(int who) {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  MR_CHECK(::getrusage(who, &usage) == 0, "getrusage failed");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---- plans -----------------------------------------------------------------

AssistPlan make_assist_plan(std::uint64_t seed, double seconds) {
  const std::size_t n = std::max<std::size_t>(
      kWarmupRequests, static_cast<std::size_t>(std::lround(kAssistRate * seconds)));
  AssistPlan plan;
  plan.programs = workload_programs(seed, n + kWarmupRequests);
  plan.warmup.assign(plan.programs.end() - kWarmupRequests, plan.programs.end());
  plan.programs.resize(n);
  return plan;
}

std::vector<corpus::Example> saturate_programs(std::uint64_t seed,
                                               double seconds) {
  return workload_programs(
      seed, std::max<std::size_t>(
                kSaturateConns * kSaturateDepth * 3,
                static_cast<std::size_t>(std::lround(kSaturateRate * seconds))));
}

std::size_t eval_trials(double seconds, double trial_seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds / trial_seconds)));
}

double traced_seconds(const std::string& workload) {
  if (workload == "assist") return 3.0;
  if (workload == "serve_saturate") return 8.0;
  if (workload == "corpus_eval") return 2.0 * kEvalTrialSeconds;
  if (workload == "corpus_eval_sharded") return 2.0 * kShardTrialSeconds;
  MR_CHECK(false, "unknown workload: " + workload);
  return 0.0;
}

core::MpiRical::TranslateRequest front_end(const std::string& serial_code) {
  const auto tree = mpirical::parse::parse_translation_unit(serial_code);
  core::MpiRical::TranslateRequest req;
  req.input_code = mpirical::ast::print_code(*tree);
  const auto reparsed = mpirical::parse::parse_translation_unit(req.input_code);
  req.input_xsbt = mpirical::xsbt::xsbt_string(*reparsed);
  return req;
}

}  // namespace mpbench
