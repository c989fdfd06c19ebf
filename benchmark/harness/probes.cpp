// The layer probe of a traced run: times the public calls under the decode
// engine one layer at a time, on the fixture's shapes and the traced passes'
// own requests.
//
//   tensor  GF/s of the packed decode GEMMs (f32 gemm_acc_packed_rowstable
//           and int8 gemm_acc_packed_i8) at each fixture projection shape and
//           1/32/128 rows, against a 512^3 gemm_acc as the machine's peak.
//           Bytes per call are COMPUTED from the packed panel size, not
//           measured.
//   nn      nn::DecodeStream step time with 1 and 32 live lanes,
//           precompute_cross_kv_batch per request, and the exact step and
//           token counts of replaying each traced pass's requests in the
//           shape the workload sends them: assist's one at a time, the others
//           in waves of 32 (the counts move only when outputs change).
//   core    MpiRical::encode_source over the corpus_eval programs.

#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "nn/infer.hpp"
#include "support/rng.hpp"
#include "tensor/kernels.hpp"
#include "toklib/vocab.hpp"

namespace mpbench {
namespace {

namespace kernels = mpirical::tensor::kernels;
namespace nn = mpirical::nn;
using kernels::Trans;

constexpr double kGemmProbeMs = 40.0;

/// Calls `fn` until kGemmProbeMs have passed (after one warm call); returns
/// GF/s for `flops` per call.
template <typename Fn>
double gflops(double flops, Fn&& fn) {
  fn();
  std::size_t calls = 0;
  const Clock::time_point start = Clock::now();
  double ms = 0.0;
  do {
    fn();
    ++calls;
    ms = ms_between(start, Clock::now());
  } while (ms < kGemmProbeMs);
  return flops * static_cast<double>(calls) / (ms * 1e6);
}

void gemm_probe(const core::MpiRical& model, Result& r, std::string& table) {
  mpirical::Rng rng(7);
  {
    const int n = 512;
    const std::vector<float> a = rng.gaussian_vec(n * n);
    const std::vector<float> b = rng.gaussian_vec(n * n);
    std::vector<float> c(n * n, 0.0f);
    r.layers.num("tensor.peak_gflops",
                 gflops(2.0 * n * n * n, [&] {
                   kernels::gemm_acc(Trans::N, Trans::N, n, n, n, a.data(), n,
                                     b.data(), n, c.data(), n);
                 }));
  }
  const int d = model.transformer().config().d_model;
  const int ffn = model.transformer().config().ffn_dim;
  const int vocab = static_cast<int>(model.vocab().size());
  struct Shape {
    const char* name;
    int k, n;
  };
  const Shape shapes[] = {{"attn", d, d},
                          {"ffn_up", d, ffn},
                          {"ffn_down", ffn, d},
                          {"out_proj", d, vocab}};
  for (const Shape& s : shapes) {
    const std::vector<float> w = rng.gaussian_vec(s.k * s.n);
    const kernels::PackedPanelB f32 =
        kernels::pack_b_panels(Trans::N, s.n, s.k, w.data(), s.n);
    const kernels::PackedPanelBI8 i8 =
        kernels::pack_b_panels_i8(Trans::N, s.n, s.k, w.data(), s.n);
    for (const int m : {1, 32, 128}) {
      const std::vector<float> a = rng.gaussian_vec(m * s.k);
      std::vector<float> c(static_cast<std::size_t>(m) * s.n, 0.0f);
      const double flops = 2.0 * m * s.n * s.k;
      // A read + packed B streamed + C read and written.
      const double act_bytes = 4.0 * m * s.k + 8.0 * m * s.n;
      const double f32_bytes = act_bytes + 4.0 * f32.data.size();
      const double i8_bytes =
          act_bytes + static_cast<double>(i8.weight_bytes()) + 4.0 * i8.scales.size();
      const double gf32 = gflops(flops, [&] {
        kernels::gemm_acc_packed_rowstable(Trans::N, m, a.data(), s.k, f32,
                                           c.data(), s.n);
      });
      const double gi8 = gflops(flops, [&] {
        kernels::gemm_acc_packed_i8(Trans::N, m, a.data(), s.k, i8, c.data(),
                                    s.n);
      });
      const std::string suffix =
          std::string(s.name) + ".m" + std::to_string(m);
      r.layers.num("tensor.gflops.f32." + suffix, gf32)
          .num("tensor.gflops.i8." + suffix, gi8);
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%-8s m=%-3d k=%-3d n=%-4d  f32 %7.2f GF/s %9.0f B/call"
                    "  i8 %7.2f GF/s %9.0f B/call\n",
                    s.name, m, s.k, s.n, gf32, f32_bytes, gi8, i8_bytes);
      table += line;
    }
  }
}

/// A greedy decode request, as translate_batch builds it.
nn::DecodeRequest decode_request(const core::MpiRical& model,
                                 const core::MpiRical::TranslateRequest& in) {
  nn::DecodeRequest req;
  req.src_ids = model.encode_source(in.input_code, in.input_xsbt);
  req.sos = mpirical::tok::kSos;
  req.eos = mpirical::tok::kEos;
  req.max_len = model.config().max_tgt_tokens;
  req.beam_width = 1;
  return req;
}

/// Replays requests through a DecodeStream in groups of `wave` (1: one at a
/// time, as assist's single user sends them; 32: translate_batch's waves),
/// counting step() calls and decoded tokens. Returns the duration of every
/// step taken with a full group live.
std::vector<double> replay(
    const core::MpiRical& model,
    const std::vector<core::MpiRical::TranslateRequest>& inputs,
    std::size_t wave, const std::string& prefix, Result& r) {
  std::vector<double> step_ms;
  std::uint64_t steps = 0, tokens = 0;
  nn::DecodeStream stream(model.transformer());
  for (std::size_t lo = 0; lo < inputs.size(); lo += wave) {
    const std::size_t hi = std::min(inputs.size(), lo + wave);
    std::vector<nn::DecodeRequest> reqs;
    for (std::size_t i = lo; i < hi; ++i) {
      reqs.push_back(decode_request(model, inputs[i]));
    }
    stream.submit(reqs);
    while (!stream.idle()) {
      const bool full = stream.live() == wave;
      const Clock::time_point start = Clock::now();
      const auto finished = stream.step();
      if (full) step_ms.push_back(ms_between(start, Clock::now()));
      ++steps;
      for (const auto& f : finished) tokens += f.result.tokens.size();
    }
  }
  r.layers.count(prefix + ".nn.steps", steps).count(prefix + ".nn.tokens", tokens);
  return step_ms;
}

}  // namespace

Result run_probe(const Options& opt, const core::MpiRical& model) {
  using Request = core::MpiRical::TranslateRequest;
  Result r;
  r.attempted = 1;
  std::string table;
  gemm_probe(model, r, table);
  r.record.str("gemm_table", table);

  // The traced passes' own requests, rebuilt from the same plans.
  {
    const AssistPlan plan =
        make_assist_plan(opt.seed, traced_seconds("assist"));
    std::vector<Request> reqs;
    for (const auto& ex : plan.programs) reqs.push_back(front_end(ex.input_code));
    r.layers.num("nn.step_ms.lanes1",
                 percentile(replay(model, reqs, 1, "assist", r), 0.5));
  }
  {
    std::vector<Request> reqs;
    for (const auto& ex :
         saturate_programs(opt.seed, traced_seconds("serve_saturate"))) {
      reqs.push_back({ex.input_code, ex.input_xsbt});
    }
    replay(model, reqs, 32, "serve_saturate", r);
  }
  {
    const std::vector<corpus::Example> programs =
        workload_programs(opt.seed, kEvalPrograms);
    std::vector<Request> reqs;
    double encode_source_ms = 0.0;
    std::vector<std::vector<int>> sources;
    for (const auto& ex : programs) {
      reqs.push_back({ex.input_code, ex.input_xsbt});
      const Clock::time_point start = Clock::now();
      sources.push_back(model.encode_source(ex.input_code, ex.input_xsbt));
      encode_source_ms += ms_between(start, Clock::now());
    }
    const std::vector<double> lanes32 =
        replay(model, reqs, 32, "corpus_eval", r);
    std::vector<double> encode_per_request;
    for (std::size_t lo = 0; lo < sources.size(); lo += 32) {
      std::vector<const std::vector<int>*> wave;
      for (std::size_t i = lo; i < std::min(sources.size(), lo + 32); ++i) {
        wave.push_back(&sources[i]);
      }
      const Clock::time_point start = Clock::now();
      const auto kv =
          nn::precompute_cross_kv_batch(model.transformer(), wave, true);
      encode_per_request.push_back(ms_between(start, Clock::now()) /
                                   static_cast<double>(kv.size()));
    }
    r.layers.num("nn.step_ms.lanes32", percentile(lanes32, 0.5))
        .num("nn.encode_ms.per_request", percentile(encode_per_request, 0.5))
        .num("core.encode_source_ms.total", encode_source_ms);
  }
  return r;
}

}  // namespace mpbench
