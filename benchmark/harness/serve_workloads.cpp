// The two serving workloads. Both drive a real mpirical_served process over
// its Unix-domain socket from this one load-generating process.
//
//   assist          the paper's on-the-fly use: one programmer who asks for
//                   suggestions, waits for them, and asks again at once (a
//                   closed loop of one, no think time, greedy, distinct
//                   programs). Each request runs a copy of
//                   MpiRical::suggest's front end before sending and of its
//                   call-site extraction after; its latency spans all three.
//                   The loop keeps the daemon's cores busy, so this latency
//                   is a warm-core lower bound, not what a user who pauses
//                   between requests sees.
//   serve_saturate  capacity: a closed loop of kSaturateConns connections x
//                   kSaturateDepth pipelined requests (= the 32-lane wave),
//                   distinct programs, all greedy.
//
// Set-up time is the daemon's: spawn until its socket accepts a connection,
// the median of kSetupRepeats launches.

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "cparse/parser.hpp"
#include "serve/client.hpp"
#include "support/check.hpp"

extern char** environ;

namespace mpbench {
namespace {

using mpirical::Error;
using Request = core::MpiRical::TranslateRequest;

/// The daemon runs this much nicer than the load generator. Its engine and
/// three pool threads fill the four cores, and at equal priority a woken
/// load-generator thread can wait a scheduler slice for a core: time the
/// daemon did not spend, read as its latency, and a late refill of its wave.
constexpr int kDaemonNice = 5;

/// One mpirical_served process. The destructor kills and reaps a daemon
/// that was not shut down, so no path leaves a process behind.
class Daemon {
 public:
  /// The daemon's own messages go to `log_path`, not the harness's stderr.
  Daemon(const std::string& model_path, const std::string& socket,
         const std::string& stats_path, const std::string& log_path)
      : socket_(socket) {
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "MPIRICAL_STATS=", 15) != 0) env.emplace_back(*e);
    }
    if (!stats_path.empty()) env.push_back("MPIRICAL_STATS=" + stats_path);
    std::vector<char*> envp;
    for (auto& s : env) envp.push_back(s.data());
    envp.push_back(nullptr);
    const std::string exe = MPIRICAL_SERVED_PATH;
    std::vector<std::string> args = {exe, model_path, socket};
    std::vector<char*> argv;
    for (auto& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);

    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    MR_CHECK(log_fd >= 0, "cannot open " + log_path);
    spawned_ = Clock::now();
    pid_ = ::fork();
    if (pid_ == 0) {
      if (::dup2(log_fd, 2) < 0 ||
          ::setpriority(PRIO_PROCESS, 0, kDaemonNice) != 0) {
        _exit(126);
      }
      ::execve(exe.c_str(), argv.data(), envp.data());
      _exit(127);
    }
    ::close(log_fd);
    MR_CHECK(pid_ >= 0, "fork() failed");
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the socket accepts a connection; returns the time since
  /// spawn. Polls every 100 us (serve::Client's own retry sleeps 10 ms,
  /// which would quantize a ~10 ms start-up).
  double wait_ready_ms() {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    MR_CHECK(socket_.size() < sizeof(addr.sun_path), "socket path too long");
    std::memcpy(addr.sun_path, socket_.c_str(), socket_.size() + 1);
    const Clock::time_point deadline = spawned_ + std::chrono::seconds(30);
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      MR_CHECK(fd >= 0, "socket(AF_UNIX) failed");
      const int rc =
          ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
      const Clock::time_point now = Clock::now();
      ::close(fd);
      if (rc == 0) return ms_between(spawned_, now);
      int status = 0;
      MR_CHECK(::waitpid(pid_, &status, WNOHANG) == 0,
               "mpirical_served exited during start-up");
      MR_CHECK(now < deadline, "mpirical_served did not start in 30 s");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  /// Drain-and-exit handshake, then reaps the process. Returns its peak RSS.
  double shutdown() {
    {
      mpirical::serve::Client stopper(socket_);
      stopper.send_shutdown();
      stopper.finish();
      while (stopper.recv().has_value()) {
      }
    }
    int status = 0;
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    pid_t r;
    while ((r = ::wait4(pid_, &status, 0, &usage)) < 0 && errno == EINTR) {
    }
    MR_CHECK(r == pid_, "wait4(mpirical_served) failed");
    pid_ = -1;
    MR_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
             "mpirical_served exited abnormally");
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  Clock::time_point spawned_;
};

/// Launches the daemon kSetupRepeats times; all but the last are shut down.
/// Reports the median start-up as setup_s and returns the running one.
std::unique_ptr<Daemon> launch(const Options& opt, Result& r) {
  const std::string model = fixture_model_path(opt.fixture_dir);
  const std::string socket = opt.out_dir + "/serve.sock";
  std::vector<double> ready_ms;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const bool last = i + 1 == kSetupRepeats;
    const std::string stats =
        last && opt.traced ? opt.out_dir + "/daemon_stats.jsonl" : "";
    daemon = std::make_unique<Daemon>(model, socket, stats,
                                      opt.out_dir + "/daemon.log");
    ready_ms.push_back(daemon->wait_ready_ms());
    if (!last) daemon->shutdown();
  }
  r.e2e.num("setup_s", percentile(ready_ms, 0.5) / 1e3);
  return daemon;
}

/// A copy of MpiRical::suggest's call-site extraction (see front_end).
std::size_t extract_calls(const std::string& predicted) {
  // A malformed prediction yields no suggestions, exactly as suggest() does.
  try {
    const auto tree = mpirical::parse::parse_translation_unit(predicted);
    return mpirical::ast::collect_mpi_calls(*tree).size();
  } catch (const Error&) {
    return 0;
  }
}

void check_outputs(const std::vector<std::string>& got,
                   const std::vector<std::string>& expected,
                   const std::vector<char>& received, Result& r) {
  std::uint64_t mismatched = 0;
  std::string all;
  std::uint64_t tokens = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!received[i]) continue;
    if (got[i] != expected[i]) ++mismatched;
    all += got[i];
    all += '\0';
    tokens += output_tokens(got[i]);
  }
  if (mismatched != 0) {
    r.fail(std::to_string(mismatched) +
           " served outputs differ from the local translate_batch");
    r.failed += mismatched;
  }
  r.record.str("outputs_fnv", hex64(fnv1a64_of(all)));
  r.record.count("nn_tokens", tokens);
}

}  // namespace

Result run_assist(const Options& opt, const core::MpiRical& model) {
  const AssistPlan plan = make_assist_plan(opt.seed, opt.seconds);
  const std::size_t n = plan.programs.size();
  Result r;
  r.attempted = n;
  std::vector<Request> want;
  for (const auto& ex : plan.programs) want.push_back(front_end(ex.input_code));
  const std::vector<std::string> expected = oracle_outputs(model, want);
  std::unique_ptr<Daemon> daemon = launch(opt, r);

  std::vector<Clock::time_point> start(n), sent(n), got(n), done(n);
  std::vector<Request> sent_req(n);
  std::vector<std::string> outputs(n);
  std::vector<char> received(n, 0);
  std::size_t received_count = 0;
  try {
    mpirical::serve::Client client(opt.out_dir + "/serve.sock");
    // Untimed warm-up on programs the plan never sends: the daemon's first
    // requests also pay its first-touch allocations.
    for (const auto& ex : plan.warmup) {
      client.send(ex.input_code, ex.input_xsbt);
      MR_CHECK(client.recv().has_value(), "daemon closed during warm-up");
    }
    for (std::size_t i = 0; i < n; ++i) {
      start[i] = Clock::now();
      sent_req[i] = front_end(plan.programs[i].input_code);
      sent[i] = Clock::now();
      client.send(sent_req[i].input_code, sent_req[i].input_xsbt);
      auto res = client.recv();
      got[i] = Clock::now();
      MR_CHECK(res.has_value(), "daemon closed the connection early");
      outputs[i] = std::move(res->output_code);
      extract_calls(outputs[i]);
      done[i] = Clock::now();
      received[i] = 1;
      ++received_count;
    }
    client.finish();
  } catch (const std::exception& e) {
    r.fail(std::string("assist: ") + e.what());
  }
  r.failed = n - received_count;
  r.e2e.num("peak_rss_mb", daemon->shutdown());
  MR_CHECK(received_count > 0, "assist: no request completed");

  std::vector<double> latency, frontend, extract;
  for (std::size_t i = 0; i < received_count; ++i) {
    latency.push_back(ms_between(start[i], done[i]));
    frontend.push_back(ms_between(start[i], sent[i]));
    extract.push_back(ms_between(got[i], done[i]));
  }
  const Clock::time_point last = done[received_count - 1];
  r.e2e.num("latency_p50_ms", percentile(latency, 0.5))
      .num("latency_p95_ms", percentile(latency, 0.95))
      .num("throughput_per_s", static_cast<double>(received_count) * 1e3 /
                                   ms_between(start[0], last));
  r.unit_ms_mean = mean(latency);
  r.layers.num("core.frontend_ms.p50", percentile(frontend, 0.5))
      .num("core.extract_ms.p50", percentile(extract, 0.5));

  if (trace::on()) {
    const std::uint64_t pass = trace::new_id();
    trace::span(pass, "assist.pass", "pass", start[0], last, 0, 0);
    for (std::size_t i = 0; i < received_count; ++i) {
      const std::uint64_t req = trace::new_id();
      trace::span(req, "assist.request", "core", start[i], done[i], pass, i);
      trace::span(trace::new_id(), "core.frontend", "core", start[i], sent[i],
                  req, i);
      trace::span(trace::new_id(), "serve.roundtrip", "serve", sent[i], got[i],
                  req, i);
      trace::span(trace::new_id(), "core.extract", "core", got[i], done[i], req,
                  i);
    }
  }

  // Correctness: every served output equals the untimed local oracle on the
  // same front-end output, and the front end itself is deterministic.
  for (std::size_t i = 0; i < n; ++i) {
    if (received[i] && (sent_req[i].input_code != want[i].input_code ||
                        sent_req[i].input_xsbt != want[i].input_xsbt)) {
      r.fail("front end is not deterministic for request " + std::to_string(i));
    }
  }
  check_outputs(outputs, expected, received, r);
  r.record.count("requests", n);
  return r;
}

Result run_serve_saturate(const Options& opt, const core::MpiRical& model) {
  const std::vector<corpus::Example> programs =
      saturate_programs(opt.seed, opt.seconds);
  const std::size_t n = programs.size();
  Result r;
  r.attempted = n;
  std::vector<Request> reqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    reqs[i] = {programs[i].input_code, programs[i].input_xsbt};
  }
  const std::vector<std::string> expected = oracle_outputs(model, reqs);
  std::unique_ptr<Daemon> daemon = launch(opt, r);

  std::vector<Clock::time_point> sent(n), got(n);
  std::vector<std::string> outputs(n);
  std::vector<char> received(n, 0);
  std::vector<char> joined(n, 0);
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::vector<std::string> errors;  // guarded by err_mu
  const std::string socket = opt.out_dir + "/serve.sock";

  // One closed-loop connection: keep kSaturateDepth requests in flight,
  // sending the next as each result arrives.
  auto connection = [&] {
    try {
      mpirical::serve::Client client(socket);
      std::unordered_map<std::uint64_t, std::size_t> slot_of;
      auto send_next = [&] {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        sent[i] = Clock::now();
        slot_of[client.send(reqs[i].input_code, reqs[i].input_xsbt)] = i;
      };
      for (std::size_t k = 0; k < kSaturateDepth; ++k) send_next();
      while (!slot_of.empty()) {
        auto res = client.recv();
        MR_CHECK(res.has_value(), "daemon closed the connection early");
        const Clock::time_point now = Clock::now();
        const auto it = slot_of.find(res->id);
        MR_CHECK(it != slot_of.end(), "daemon returned an unknown result id");
        const std::size_t i = it->second;
        slot_of.erase(it);
        got[i] = now;
        outputs[i] = std::move(res->output_code);
        joined[i] = res->joined_running_wave != 0;
        received[i] = 1;
        send_next();
      }
      client.finish();
      while (client.recv().has_value()) {
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(err_mu);
      errors.push_back(e.what());
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < kSaturateConns; ++c) threads.emplace_back(connection);
  connection();
  for (auto& t : threads) t.join();
  for (const auto& e : errors) r.fail("serve_saturate connection: " + e);
  r.e2e.num("peak_rss_mb", daemon->shutdown());

  std::vector<double> latency;
  std::uint64_t received_count = 0, joined_count = 0;
  Clock::time_point first = Clock::time_point::max(),
                    last = Clock::time_point::min();
  for (std::size_t i = 0; i < n; ++i) {
    if (!received[i]) continue;
    ++received_count;
    if (joined[i]) ++joined_count;
    latency.push_back(ms_between(sent[i], got[i]));
    first = std::min(first, sent[i]);
    last = std::max(last, got[i]);
  }
  r.failed = n - received_count;
  // Capacity is measured between completions while the loop keeps every
  // lane busy: from the completion that ends the first wave to the one
  // after which no request is left to send. The fill and the drain are
  // left out, and since completions arrive in wave-sized bursts, both ends
  // of the window sit at burst ends.
  const std::size_t lanes = kSaturateConns * kSaturateDepth;
  if (received_count != n) {
    r.fail("serve_saturate: " + std::to_string(n - received_count) +
           " requests got no result");
    return r;
  }
  std::vector<Clock::time_point> completions(got);
  std::sort(completions.begin(), completions.end());
  const double window_ms =
      ms_between(completions[lanes - 1], completions[n - lanes - 1]);
  r.e2e.num("latency_p50_ms", percentile(latency, 0.5))
      .num("latency_p95_ms", percentile(latency, 0.95))
      .num("throughput_per_s",
           static_cast<double>(n - 2 * lanes) * 1e3 / window_ms);
  r.unit_ms_mean = mean(latency);
  r.layers.num("serve.joined_running_wave_ratio",
               static_cast<double>(joined_count) /
                   static_cast<double>(received_count));

  if (trace::on()) {
    const std::uint64_t pass = trace::new_id();
    trace::span(pass, "serve_saturate.pass", "pass", first, last, 0, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (!received[i]) continue;
      trace::span(trace::new_id(), "serve.roundtrip", "serve", sent[i], got[i],
                  pass, i);
    }
  }

  check_outputs(outputs, expected, received, r);
  r.record.count("requests", n);
  return r;
}

}  // namespace mpbench
