// Kernel-layer microbenchmark: GFLOP/s of the blocked GEMM vs the seed's
// naive loops on the figure models' layer shapes, microseconds per forward
// and backward of each CNN preset's conv layers, plus wall time and heap
// traffic per *training step* for each figure preset's model. The blocked
// numbers are the "after", the reference numbers the "before" of the
// kernel-layer PR; CI stores the JSONL output as an artifact so perf is
// tracked across commits (docs/BENCHMARKS.md).
//
// Usage: micro_gemm [--json=<path>] [--repeat-ms=<ms-per-measurement>]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "ml/conv2d.hpp"
#include "ml/gemm.hpp"
#include "ml/tile.hpp"
#include "ml/workspace.hpp"
#include "scenario/json.hpp"
#include "util/table.hpp"

// Allocation hook (shared with tests/gemm_test.cpp): counts every
// operator-new in this binary so the per-train-step heap traffic can be
// reported (steady state must be zero; gemm_test enforces that, this
// bench *reports* it).
#include "../tests/support/alloc_hook.hpp"

namespace {

using namespace airfedga;

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One GEMM workload: the batched lowering of a figure-model layer.
/// `samples` > 1 additionally times the seed's *per-sample* decomposition
/// (the pre-kernel-layer Conv2D did one naive GEMM per sample). `ta`/`tb`
/// are the operand orientations; a transposed operand is stored as its
/// layer stores it (A as (k, m), B as (n, k)).
struct GemmShape {
  const char* figure;
  const char* layer;
  std::size_t m, n, k;
  std::size_t samples;
  ml::Trans ta = ml::Trans::N;
  ml::Trans tb = ml::Trans::N;
};

constexpr ml::Trans N = ml::Trans::N;
constexpr ml::Trans T = ml::Trans::T;

// Layer lowerings at the preset scales (scenario/presets.cpp):
//   fig03  MLP-128, full-shard batch ~100 rows
//   fig04  CNN width 0.15 on 28x28 (c1=4, c2=8, fc=75), batch 16
//   fig05  CNN width 0.2 on 16x16 (c1=6, c2=13, fc=102), batch 16
//   fig06  1-hidden MLP-128 on 768 inputs, 100 classes, batch 16
// Conv forward lowers to (cout, cin*k*k) x (cin*k*k, batch*oh*ow). The
// rows without an orientation suffix all run N.N; the suffixed rows are the
// backward (and Dense forward) calls in the orientation the layers make:
// conv dW = gy . cols^T (N.T), conv dcols = W^T . gy (T.N, not run for a
// model's first layer), Dense forward x . W^T (N.T) and Dense dW = gy^T . x
// (T.N). Conv2D itself no longer calls sgemm: its passes are timed
// through the layer below (kConvLayers).
const GemmShape kShapes[] = {
    {"fig03", "dense1", 100, 128, 784, 1},
    {"fig03", "dense2", 100, 128, 128, 1},
    {"fig04", "conv1", 4, 12544, 25, 16},
    {"fig04", "conv2", 8, 3136, 100, 16},
    {"fig04", "fc", 16, 75, 392, 1},
    {"fig05", "conv1", 6, 4096, 75, 16},
    {"fig05", "conv2", 13, 1024, 150, 16},
    {"fig05", "conv2-dW", 13, 150, 1024, 1},
    {"fig05", "fc", 16, 102, 208, 1},
    {"fig06", "dense1", 16, 128, 768, 1},
    {"fig06", "head", 16, 100, 128, 1},
    {"fig04", "conv1-dW-nt", 4, 25, 12544, 1, N, T},
    {"fig04", "conv2-dW-nt", 8, 100, 3136, 1, N, T},
    {"fig04", "conv2-dcols-tn", 100, 3136, 8, 1, T, N},
    {"fig04", "fc-fwd-nt", 16, 75, 392, 1, N, T},
    {"fig04", "fc-dW-tn", 75, 392, 16, 1, T, N},
    {"fig05", "conv1-dW-nt", 6, 75, 4096, 1, N, T},
    {"fig05", "conv2-dW-nt", 13, 150, 1024, 1, N, T},
    {"fig05", "conv2-dcols-tn", 150, 1024, 13, 1, T, N},
    {"fig05", "fc-fwd-nt", 16, 102, 208, 1, N, T},
    {"fig05", "fc-dW-tn", 102, 208, 16, 1, T, N},
};

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Calls fn repeatedly until ~budget_ms of wall time accumulated; returns
/// seconds per call.
template <typename F>
double time_per_call(double budget_ms, F&& fn) {
  fn();  // warm caches / workspace
  int iters = 1;
  for (;;) {
    const double t0 = now_seconds();
    for (int i = 0; i < iters; ++i) fn();
    const double dt = now_seconds() - t0;
    if (dt * 1000.0 >= budget_ms || iters >= (1 << 22)) return dt / iters;
    iters = dt <= 0 ? iters * 8
                    : std::max(iters * 2, static_cast<int>(iters * budget_ms / (dt * 1000.0)));
  }
}

/// Calls fn one at a time until ~budget_ms of wall time accumulated (at
/// least 5 calls); returns the fastest call's seconds. Stalls from other
/// processes only ever add time, so the minimum is the steadiest figure a
/// shared host gives.
template <typename F>
double min_time_per_call(double budget_ms, F&& fn) {
  fn();  // warm caches / workspace
  double best = std::numeric_limits<double>::infinity();
  const double stop = now_seconds() + budget_ms / 1000.0;
  for (int calls = 0; calls < 5 || now_seconds() < stop; ++calls) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

struct ShapeResult {
  GemmShape shape;
  double blocked_gflops = 0;
  double naive_gflops = 0;
  double per_sample_gflops = 0;  // 0 when samples == 1
};

ShapeResult bench_shape(const GemmShape& s, double budget_ms) {
  const auto a = random_floats(s.m * s.k, 1);
  const auto b = random_floats(s.k * s.n, 2);
  std::vector<float> c(s.m * s.n, 0.0f);
  const double flops = 2.0 * static_cast<double>(s.m) * s.n * s.k;
  const std::size_t lda = s.ta == N ? s.k : s.m;
  const std::size_t ldb = s.tb == N ? s.n : s.k;

  ShapeResult r{s, 0, 0, 0};
  r.blocked_gflops =
      flops / time_per_call(budget_ms, [&] {
        ml::sgemm(s.ta, s.tb, s.m, s.n, s.k, a.data(), lda, b.data(), ldb, 0.0f, c.data(), s.n);
      }) / 1e9;
  r.naive_gflops =
      flops / time_per_call(budget_ms, [&] {
        ml::sgemm_reference(s.ta, s.tb, s.m, s.n, s.k, a.data(), lda, b.data(), ldb, 0.0f,
                            c.data(), s.n);
      }) / 1e9;
  if (s.samples > 1) {
    // The seed path: one naive GEMM per sample over an n/samples slice.
    const std::size_t n_per = s.n / s.samples;
    r.per_sample_gflops =
        flops / time_per_call(budget_ms, [&] {
          for (std::size_t i = 0; i < s.samples; ++i)
            ml::sgemm_reference(ml::Trans::N, ml::Trans::N, s.m, n_per, s.k, a.data(), s.k,
                                b.data() + i * n_per, s.n, 0.0f, c.data() + i * n_per, s.n);
        }) / 1e9;
  }
  return r;
}

/// A figure model's conv layer at its preset batch (16), timed through
/// Conv2D built as the zoo builds it (ReLU folded in): `first` marks a
/// model's first layer, whose backward skips dx.
struct ConvLayer {
  const char* figure;
  const char* layer;
  std::size_t cin, cout, kernel, pad, image;
  bool first;
};

const ConvLayer kConvLayers[] = {
    {"fig04", "conv1", 1, 4, 5, 2, 28, true},
    {"fig04", "conv2", 4, 8, 5, 2, 14, false},
    {"fig05", "conv1", 3, 6, 5, 2, 16, true},
    {"fig05", "conv2", 6, 13, 5, 2, 8, false},
};

struct ConvResult {
  double forward_us = 0;   ///< training-mode forward, per call
  double weights_us = 0;   ///< backward without dx: dW and the bias gradient
  double backward_us = 0;  ///< dW and the bias gradient, plus dx unless `first`
};

ConvResult bench_conv(const ConvLayer& l, double budget_ms) {
  constexpr std::size_t kBatch = 16;
  ml::Conv2D conv(l.cin, l.cout, l.kernel, l.pad, /*relu=*/true);
  util::Rng rng(5);
  conv.init(rng);
  const auto out = conv.out_height(l.image);
  const ml::Tensor x = ml::Tensor::randn({kBatch, l.cin, l.image, l.image}, rng);
  const ml::Tensor g = ml::Tensor::randn({kBatch, l.cout, out, out}, rng);
  ConvResult r;
  r.forward_us = 1e6 * time_per_call(budget_ms, [&] { conv.forward(x); });
  conv.forward(x);
  conv.set_input_grad(false);
  r.weights_us = 1e6 * time_per_call(budget_ms, [&] { conv.backward(g); });
  conv.set_input_grad(!l.first);
  r.backward_us = 1e6 * time_per_call(budget_ms, [&] { conv.backward(g); });
  return r;
}

struct StepResult {
  std::string preset;
  std::string model;
  std::size_t batch = 0;
  /// Mean step time, the step fanned out on the global pool.
  double ms_per_step = 0;
  /// Fastest single step, serial kernels.
  double serial_ms_per_step = 0;
  double gflops = 0;  ///< analytic forward GEMM flops / step time (lower bound)
  std::size_t allocs_per_step = 0;  ///< on a pool lane: parallel_for runs serially
  std::size_t bytes_per_step = 0;
  std::size_t fanout_allocs_per_step = 0;  ///< on the global pool, as 1-lane training
  std::size_t eval_workspace_floats = 0;   ///< arena floats one eval-batch forward leaves
};

/// Builds the preset's model on a shrunken copy of its dataset and times a
/// steady-state train_step, reporting heap traffic per step.
StepResult bench_train_step(const std::string& preset_name, double budget_ms) {
  scenario::ScenarioSpec spec = scenario::preset(preset_name);
  spec.dataset.train_samples = 256;
  spec.dataset.test_samples = 64;
  spec.eval_samples = 64;
  auto built = scenario::build(spec);

  ml::Model model = built.cfg.model_factory();
  util::Rng rng(spec.seed);
  model.init(rng);

  const std::size_t batch = spec.batch_size == 0 ? 100 : spec.batch_size;
  std::vector<std::size_t> idx(batch);
  for (std::size_t i = 0; i < batch; ++i) idx[i] = i;
  const ml::Tensor x = ml::gather_rows(built.data->train.xs, idx);
  std::vector<int> y(batch);
  for (std::size_t i = 0; i < batch; ++i) y[i] = built.data->train.ys[i];

  // Heap traffic per steady-state step, on both schedules a step runs on.
  // On a pool lane, where multi-lane runs train, the nesting rule runs
  // parallel_for serially; gemm_test checks that this allocates nothing.
  // 1-lane training (threads = 1, on the simulation thread) and the timed
  // steps below fan out on the global pool instead; its parallel_for
  // dispatch reuses the caller's latch and queues chunks without closures,
  // so that allocates nothing either (CI gates both columns).
  struct Traffic {
    std::size_t allocs, bytes;
  };
  const auto traffic_per_step = [&] {
    for (int warm = 0; warm < 3; ++warm) model.train_step(x, y, 0.01f);
    const std::size_t count0 = alloc_hook::count.load();
    const std::size_t bytes0 = alloc_hook::bytes.load();
    constexpr int kCountedSteps = 5;
    for (int s = 0; s < kCountedSteps; ++s) model.train_step(x, y, 0.01f);
    return Traffic{(alloc_hook::count.load() - count0) / kCountedSteps,
                   (alloc_hook::bytes.load() - bytes0) / kCountedSteps};
  };
  Traffic lane{};
  {
    util::ThreadPool::SerialRegion serial;
    lane = traffic_per_step();
  }
  const Traffic fanout = traffic_per_step();

  StepResult r;
  r.preset = preset_name;
  r.model = spec.model.kind;
  r.batch = batch;
  r.ms_per_step = 1000.0 * time_per_call(budget_ms, [&] { model.train_step(x, y, 0.01f); });
  {
    util::ThreadPool::SerialRegion serial;
    r.serial_ms_per_step =
        1000.0 * min_time_per_call(budget_ms, [&] { model.train_step(x, y, 0.01f); });
  }
  r.allocs_per_step = lane.allocs;
  r.bytes_per_step = lane.bytes;
  r.fanout_allocs_per_step = fanout.allocs;

  // Workspace arena an evaluation leaves pinned for the rest of a run: one
  // eval-batch forward on a fresh thread, with every GEMM tile on that
  // thread, as on an evaluating lane.
  std::vector<std::size_t> eval_idx(built.cfg.eval_batch);
  for (std::size_t i = 0; i < eval_idx.size(); ++i) eval_idx[i] = i % built.data->train.size();
  const ml::Tensor xe = ml::gather_rows(built.data->train.xs, eval_idx);
  std::thread([&] {
    util::ThreadPool::SerialRegion serial;
    ml::Model eval_model = built.cfg.model_factory();
    eval_model.set_training(false);
    eval_model.forward(xe);
    r.eval_workspace_floats = ml::Workspace::tls().floats_reserved();
  }).join();

  // Analytic GEMM flops of one step (forward + both backward GEMMs ~ 3x
  // forward) for a rough GFLOP/s figure; exact per-layer flops are what
  // the shape table above measures.
  double fwd_flops = 0;
  for (const auto& s : kShapes)
    if (preset_name.rfind(s.figure, 0) == 0 && s.ta == N && s.tb == N)
      fwd_flops += 2.0 * static_cast<double>(s.m) * s.n * s.k;
  r.gflops = 3.0 * fwd_flops / (r.ms_per_step / 1000.0) / 1e9;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::FlagParser flags(
      "Kernel-layer microbenchmark: blocked vs naive GEMM GFLOP/s on the figure models' layer "
      "shapes, and wall time + heap allocations per training step per figure preset.");
  flags.add("json", "append one JSONL record per measurement to this file");
  flags.add("repeat-ms", "wall-time budget per measurement in ms (default 200)");
  if (auto ec = flags.parse(argc, argv)) return *ec;

  double budget_ms = 200.0;
  if (const std::string* v = flags.get("repeat-ms")) budget_ms = std::atof(v->c_str());
  if (budget_ms <= 0) {
    std::fprintf(stderr, "invalid --repeat-ms\n");
    return 2;
  }

  std::vector<scenario::Json> records;
  const char* body = ml::tile::kernel().name;  // the register-tile body every record timed
  std::printf("kernel body: %s\n\n", body);

  std::printf("=== Blocked GEMM vs seed kernels (single thread) ===\n");
  util::Table t({"figure", "layer", "op", "m", "n", "k", "blocked GF/s", "naive GF/s",
                 "per-sample GF/s", "speedup"});
  {
    util::ThreadPool::SerialRegion serial;  // single-thread kernel numbers
    for (const auto& s : kShapes) {
      const auto r = bench_shape(s, budget_ms);
      const double baseline = r.per_sample_gflops > 0 ? r.per_sample_gflops : r.naive_gflops;
      const std::string op = std::string(s.ta == N ? "N" : "T") + (s.tb == N ? "N" : "T");
      t.add_row({s.figure, s.layer, op, util::Table::fmt_int(static_cast<long long>(s.m)),
                 util::Table::fmt_int(static_cast<long long>(s.n)),
                 util::Table::fmt_int(static_cast<long long>(s.k)),
                 util::Table::fmt(r.blocked_gflops, 2), util::Table::fmt(r.naive_gflops, 2),
                 r.per_sample_gflops > 0 ? util::Table::fmt(r.per_sample_gflops, 2) : "-",
                 util::Table::fmt(r.blocked_gflops / baseline, 2) + "x"});
      scenario::Json rec = scenario::Json::object();
      rec.set("kind", "gemm_shape");
      rec.set("kernel", body);
      rec.set("figure", s.figure);
      rec.set("layer", s.layer);
      rec.set("op", op);
      rec.set("m", s.m);
      rec.set("n", s.n);
      rec.set("k", s.k);
      rec.set("blocked_gflops", r.blocked_gflops);
      rec.set("naive_gflops", r.naive_gflops);
      if (r.per_sample_gflops > 0) rec.set("per_sample_gflops", r.per_sample_gflops);
      rec.set("speedup", r.blocked_gflops / baseline);
      records.push_back(std::move(rec));
    }
  }
  t.print(std::cout);

  std::printf("\n=== Conv2D passes at batch 16 (single thread) ===\n");
  util::Table tc({"figure", "layer", "forward us", "weights us", "backward us"});
  {
    util::ThreadPool::SerialRegion serial;
    for (const auto& l : kConvLayers) {
      const auto r = bench_conv(l, budget_ms);
      tc.add_row({l.figure, l.layer, util::Table::fmt(r.forward_us, 1),
                  util::Table::fmt(r.weights_us, 1),
                  util::Table::fmt(r.backward_us, 1) + (l.first ? " (no dx)" : "")});
      for (const auto& [pass, us] :
           {std::pair{"forward", r.forward_us}, std::pair{"weights", r.weights_us},
            std::pair{"backward", r.backward_us}}) {
        scenario::Json rec = scenario::Json::object();
        rec.set("kind", "conv_pass");
        rec.set("kernel", body);
        rec.set("figure", l.figure);
        rec.set("layer", l.layer);
        rec.set("pass", pass);
        rec.set("us_per_call", us);
        records.push_back(std::move(rec));
      }
    }
  }
  tc.print(std::cout);
  std::printf("(weights: backward without the input gradient, i.e. dW and the bias gradient; "
              "backward - weights is dx)\n");

  std::printf("\n=== Training step: wall time and heap traffic (steady state) ===\n");
  util::Table ts({"preset", "model", "batch", "ms/step", "serial min ms", "~GF/s",
                  "allocs/step", "bytes/step", "fan-out allocs/step", "eval ws floats"});
  for (const char* preset :
       {"fig03_lr_mnist", "fig04_cnn_mnist", "fig05_cnn_cifar", "fig06_vgg_imagenet"}) {
    const auto r = bench_train_step(preset, budget_ms);
    ts.add_row({r.preset, r.model, util::Table::fmt_int(static_cast<long long>(r.batch)),
                util::Table::fmt(r.ms_per_step, 3), util::Table::fmt(r.serial_ms_per_step, 3),
                util::Table::fmt(r.gflops, 2),
                util::Table::fmt_int(static_cast<long long>(r.allocs_per_step)),
                util::Table::fmt_int(static_cast<long long>(r.bytes_per_step)),
                util::Table::fmt_int(static_cast<long long>(r.fanout_allocs_per_step)),
                util::Table::fmt_int(static_cast<long long>(r.eval_workspace_floats))});
    scenario::Json rec = scenario::Json::object();
    rec.set("kind", "train_step");
    rec.set("kernel", body);
    rec.set("preset", r.preset);
    rec.set("model", r.model);
    rec.set("batch", r.batch);
    rec.set("ms_per_step", r.ms_per_step);
    rec.set("serial_ms_per_step", r.serial_ms_per_step);
    rec.set("allocs_per_step", r.allocs_per_step);
    rec.set("bytes_per_step", r.bytes_per_step);
    rec.set("fanout_allocs_per_step", r.fanout_allocs_per_step);
    rec.set("eval_workspace_floats", r.eval_workspace_floats);
    records.push_back(std::move(rec));
  }
  ts.print(std::cout);
  std::printf(
      "(ms/step: mean of steps fanned out on the global pool, as 1-lane training runs "
      "them; serial min ms: the fastest single step with serial kernels, the figure to compare "
      "across commits on a shared host.\n allocs/step and bytes/step: a step on a pool lane, "
      "where parallel_for runs serially; "
      "must be 0 in steady state — gemm_test enforces it.\n fan-out allocs/step: a step on the "
      "global pool, as 1-lane training and ms/step run it; must be 0 too.\n eval ws "
      "floats: workspace arena floats one eval-batch forward leaves on its thread)\n");

  if (const std::string* path = flags.get("json")) {
    std::ofstream out(*path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path->c_str());
      return 1;
    }
    for (const auto& rec : records) out << rec.dump() << "\n";
    std::printf("\nwrote %zu records to %s\n", records.size(), path->c_str());
  }
  return 0;
}
