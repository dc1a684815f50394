// bench_suite: runs ONE benchmark workload in this process and prints its
// measurements as one JSON object on the last line of stdout. run_suite.py
// drives it (one process per workload), picks the metrics BENCHMARK.json
// names and checks them; README.md describes the workloads and metrics.
//
//   bench_suite --workload=<name> --seed=N --seconds=S --trace=0|1
//               [--cache-dir=DIR] [--smoke]
//
// Every layer is measured from outside: bench_suite times calls into the
// public API (HeModel, BatchModelSet, BatchServer, NetServer/NetClient,
// NttTable, dyadic) and reads the public counters (op counts, arena stats,
// thread-pool tasks, server and transport stats, ParallelSim). --trace=1
// adds the per-layer numbers: kernel timings, planner drift rows, and a
// traced pass that turns on the program's own spans after the timed window.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckks/rns_backend.hpp"
#include "common/cli.hpp"
#include "common/parallel_sim.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/he_model.hpp"
#include "core/pipeline.hpp"
#include "math/hal/hal.hpp"
#include "math/modarith.hpp"
#include "math/ntt.hpp"
#include "serve/model_set.hpp"
#include "serve/net/net_client.hpp"
#include "serve/net/net_server.hpp"
#include "serve/server.hpp"

using namespace pphe;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  LatencyStats s;
  for (const double x : v) s.add(x);
  return s.percentile(q);
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

template <typename T>
int argmax(const std::vector<T>& v) {
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

// ---------------------------------------------------------------------------
// Result record: named metrics, planner drift rows, and the correctness tally.
// ---------------------------------------------------------------------------

struct Result {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::pair<double, double>>> drift;
  /// Diagnostics printed for a reader but not part of the benchmark's metric
  /// set (they exist on only some workloads).
  std::map<std::string, double> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double max_logit_err = 0.0;
  /// Host facts a comparison must match: worker count and dispatched ISA.
  std::size_t nproc = ThreadPool::default_thread_count();
  std::string isa = hal::isa_name(hal::active_isa());

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// A planner prediction next to the measurement it predicts; never gated.
  void put_drift(const std::string& name, double predicted, double measured) {
    drift.push_back({name, {predicted, measured}});
  }
  /// One classified image: `ok` is false for an exception, rejection or
  /// degraded reply; otherwise the HE argmax must equal the plaintext one.
  void check(bool ok, const std::vector<double>& he_logits,
             const std::vector<float>& plain) {
    ++attempted;
    if (!ok || he_logits.size() != plain.size() ||
        argmax(he_logits) != argmax(plain)) {
      ++failed;
      return;
    }
    for (std::size_t c = 0; c < plain.size(); ++c) {
      const double err = std::abs(he_logits[c] - static_cast<double>(plain[c]));
      max_logit_err = std::max(max_logit_err, err);
    }
  }

  std::string json(const std::string& workload) const {
    std::ostringstream os;
    os.precision(12);
    os << "{\"workload\": \"" << workload << "\", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"host\": {\"nproc\": " << nproc
       << ", \"isa\": \"" << isa << "\"}, \"info\": {";
    const char* sep = "";
    for (const auto& [k, v] : info) {
      os << sep << "\"" << k << "\": " << v;
      sep = ", ";
    }
    os << "}, \"metrics\": {";
    sep = "";
    for (const auto& [name, vu] : metrics) {
      os << sep << "\"" << name << "\": {\"value\": " << vu.first
         << ", \"unit\": \"" << vu.second << "\"}";
      sep = ", ";
    }
    os << "}, \"drift\": {";
    sep = "";
    for (const auto& [name, pm] : drift) {
      os << sep << "\"" << name << "\": {\"predicted\": " << pm.first
         << ", \"measured\": " << pm.second << "}";
      sep = ", ";
    }
    os << "}}";
    return os.str();
  }
};

// ---------------------------------------------------------------------------
// Inputs: trained models from the suite cache, seeded test-image picks.
// ---------------------------------------------------------------------------

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct Suite {
  bool smoke = false;
  bool trace = false;
  double seconds = 10.0;
  std::uint64_t seed = 1;
  std::string cache_dir;
};

/// Training and key generation use the fixed seed 1234 on every workload;
/// the run's --seed only picks the test images.
ExperimentConfig experiment_config(const Suite& suite) {
  ExperimentConfig cfg;
  cfg.train_size = suite.smoke ? 1000 : 4000;
  cfg.test_size = suite.smoke ? 200 : 1500;
  cfg.relu_epochs = suite.smoke ? 2 : 6;
  cfg.slaf_epochs = suite.smoke ? 1 : 4;
  cfg.cache_dir = suite.cache_dir;
  cfg.seed = 1234;
  cfg.verbose = false;
  return cfg;
}

CkksParams params_at(int log_n) {
  CkksParams p = CkksParams::paper_table2();  // Table II chain, Δ = 2^26
  p.degree = std::size_t{1} << log_n;
  p.seed = 1234;
  return p;
}

/// Smallest plaintext top-1/top-2 logit gap a picked image must have. CKKS
/// noise moves single logits by up to ~1.2 on cnn1-enc-k3 (~0.1 on
/// cnn2-plain-n13), so a closer call could flip legitimately and the
/// correctness check would test the noise, not the program.
constexpr float kMinMargin = 3.0f;

struct Picked {
  std::vector<std::vector<float>> images;
  std::vector<std::vector<float>> plain;  // eval_spec logits per image
};

/// `count` distinct test images in an order drawn from `seed`, keeping only
/// those whose plaintext decision clears kMinMargin.
Picked pick_images(const Dataset& test, const ModelSpec& spec,
                   std::uint64_t seed, std::size_t count) {
  std::vector<std::size_t> order(test.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  Picked out;
  for (const std::size_t idx : order) {
    if (out.images.size() == count) break;
    const float* px = test.images.data() + idx * 784;
    std::vector<float> img(px, px + 784);
    std::vector<float> logits = eval_spec(spec, img);
    std::vector<float> top = logits;
    std::partial_sort(top.begin(), top.begin() + 2, top.end(),
                      std::greater<float>());
    if (top[0] - top[1] < kMinMargin) continue;
    out.images.push_back(std::move(img));
    out.plain.push_back(std::move(logits));
  }
  PPHE_CHECK(!out.images.empty(), "no test image clears the decision margin");
  return out;
}

// ---------------------------------------------------------------------------
// Counters read before and after the timed window (public API only).
// ---------------------------------------------------------------------------

constexpr OpKind kReportedOps[] = {
    OpKind::kNttForward,    OpKind::kNttInverse,  OpKind::kKswInner,
    OpKind::kModDown,       OpKind::kRelinearize, OpKind::kRescale,
    OpKind::kRotate,        OpKind::kRotateHoisted, OpKind::kMultiply,
    OpKind::kMultiplyPlain, OpKind::kMultiplyAcc, OpKind::kMultiplyPlainAcc,
    OpKind::kEncode,        OpKind::kAdd,
};

/// Counter readings at one instant (public API only).
struct Snapshot {
  std::vector<std::uint64_t> ops = std::vector<std::uint64_t>(kOpKindCount);
  std::uint64_t pool_misses = 0;
  std::uint64_t tasks = 0;
  double cpu_s = 0.0;
  Clock::time_point wall;

  static Snapshot read(const HeBackend& backend) {
    Snapshot c;
    for (std::size_t k = 0; k < kOpKindCount; ++k) {
      c.ops[k] = backend.op_count(static_cast<OpKind>(k));
    }
    c.pool_misses = backend.mem_stats().pool_misses;
    c.tasks = ThreadPool::global().tasks_enqueued();
    c.cpu_s = cpu_seconds();
    c.wall = Clock::now();
    return c;
  }
};

/// Counter deltas over the timed window.
struct Window {
  std::vector<std::uint64_t> ops = std::vector<std::uint64_t>(kOpKindCount);
  std::uint64_t pool_misses = 0;
  std::uint64_t tasks = 0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  double arena_peak_mb = 0.0;

  Window(const Snapshot& before, const Snapshot& after,
         const HeBackend& backend)
      : pool_misses(after.pool_misses - before.pool_misses),
        tasks(after.tasks - before.tasks),
        cpu_s(after.cpu_s - before.cpu_s),
        wall_s(std::chrono::duration<double>(after.wall - before.wall).count()),
        arena_peak_mb(static_cast<double>(backend.mem_stats().peak_bytes) /
                      (1 << 20)) {
    for (std::size_t k = 0; k < kOpKindCount; ++k) {
      ops[k] = after.ops[k] - before.ops[k];
    }
  }

  double per(OpKind kind, double units) const {
    return static_cast<double>(ops[static_cast<std::size_t>(kind)]) / units;
  }
};

/// ops.*, arena, thread-pool and CPU metrics of the timed window.
void put_counter_metrics(Result& r, const Window& win, double images) {
  for (const OpKind kind : kReportedOps) {
    r.put(std::string("ops.") + op_name(kind) + "_per_img",
          win.per(kind, images), "count");
  }
  r.put("ckks.pool_miss_per_img",
        static_cast<double>(win.pool_misses) / images, "count");
  r.put("ckks.arena_peak_mb", win.arena_peak_mb, "MB");
  r.put("pool.tasks_per_img", static_cast<double>(win.tasks) / images,
        "count");
  r.put("proc.cpu_util", win.cpu_s / win.wall_s, "cores");
}

/// cost_report sums, and drift rows next to the op counters they predict.
void put_plan_metrics(Result& r, const HeModel& model, const Window& win,
                      double evals) {
  double rotations = 0, moddowns = 0, relins = 0;
  for (const auto& stage : model.cost_report()) {
    rotations += static_cast<double>(stage.rotations);
    moddowns += static_cast<double>(stage.moddowns);
    relins += static_cast<double>(stage.relins);
  }
  r.put("plan.rotations", rotations, "count");
  r.put("plan.moddowns", moddowns, "count");
  r.put("plan.relins", relins, "count");
  // Every planned rotation and relinearization is one key-switch inner
  // product; the fused path does not count its rotations as kRotate.
  r.put_drift("keyswitches_per_eval", rotations + relins,
              win.per(OpKind::kKswInner, evals));
  r.put_drift("moddowns_per_eval", moddowns, win.per(OpKind::kModDown, evals));
  r.put_drift("relins_per_eval", relins,
              win.per(OpKind::kRelinearize, evals));
  r.info["predicted_output_error"] = model.predicted_output_error();
}

// ---------------------------------------------------------------------------
// Kernel timings (math layer) at the workload's ring degree.
// ---------------------------------------------------------------------------

void put_kernel_metrics(Result& r, const RnsBackend& backend) {
  const Modulus& mod = backend.q_moduli().front();
  const std::size_t n = backend.params().degree;
  const NttTable table(n, mod);
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> a(n), w(n), wq(n), acc(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng() % mod.value();
    w[i] = rng() % mod.value();
  }
  dyadic::shoup_precompute(w, wq, mod);
  // Median per-call time over 15 batches of ~2 ms each.
  const int reps = static_cast<int>(std::max<std::size_t>(4, (1 << 19) / n));
  const auto time_us = [reps](const std::function<void()>& fn) {
    std::vector<double> per_call;
    for (int b = 0; b < 15; ++b) {
      const auto t0 = Clock::now();
      for (int i = 0; i < reps; ++i) fn();
      per_call.push_back(since(t0) * 1e6 / reps);
    }
    return quantile(per_call, 0.5);
  };
  r.put("math.ntt_fwd_us", time_us([&] { table.forward(a); }), "us");
  r.put("math.ntt_inv_us", time_us([&] { table.inverse(a); }), "us");
  r.put("math.mul_acc_shoup_us",
        time_us([&] { dyadic::mul_acc_shoup(a, w, wq, acc, mod); }), "us");
}

// ---------------------------------------------------------------------------
// Traced pass: the program's own spans, turned on after the timed window.
// ---------------------------------------------------------------------------

/// "<category>.<name>", with the per-stage "layerN:linear 720->64" labels
/// folded into stage.linear / stage.activation.
std::string span_key(const trace::Event& ev) {
  const std::string cat = ev.cat;
  const std::string name = ev.name;
  if (cat == "layer") {
    return name.find(":linear") != std::string::npos ? "stage.linear"
                                                     : "stage.activation";
  }
  return cat + "." + name;
}

struct SpanTimes {
  std::map<std::string, double> total_ns;  // inclusive duration
  std::map<std::string, double> self_ns;   // minus same-thread child spans

  double total(const std::string& key) const {
    const auto it = total_ns.find(key);
    return it == total_ns.end() ? 0.0 : it->second * 1e-9;
  }
  double self(const std::string& key) const {
    const auto it = self_ns.find(key);
    return it == self_ns.end() ? 0.0 : it->second * 1e-9;
  }

  void add(std::vector<trace::Event> events) {
    std::sort(events.begin(), events.end(),
              [](const trace::Event& a, const trace::Event& b) {
                if (a.tid != b.tid) return a.tid < b.tid;
                if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                return a.depth < b.depth;
              });
    std::vector<double> self(events.size());
    std::vector<std::size_t> open;  // enclosing spans of the current event
    for (std::size_t i = 0; i < events.size(); ++i) {
      const trace::Event& ev = events[i];
      self[i] = static_cast<double>(ev.dur_ns);
      while (!open.empty()) {
        const trace::Event& top = events[open.back()];
        if (top.tid == ev.tid && top.depth < ev.depth &&
            ev.start_ns < top.start_ns + top.dur_ns) {
          break;
        }
        open.pop_back();
      }
      if (!open.empty()) self[open.back()] -= static_cast<double>(ev.dur_ns);
      open.push_back(i);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      const std::string key = span_key(events[i]);
      total_ns[key] += static_cast<double>(events[i].dur_ns);
      self_ns[key] += self[i];
    }
  }
};

/// Runs `items` untraced/traced pairs of `run_item` (one HeModel evaluation
/// each) and reports per-evaluation stage and kernel times from the spans,
/// the ParallelSim prediction, and the tracing overhead.
void traced_pass(Result& r, int items, const std::function<void()>& run_item) {
  SpanTimes spans;
  std::uint64_t dropped = 0;
  std::vector<double> plain_s, traced_s;
  ParallelSim::global().reset();
  for (int i = 0; i < items; ++i) {
    auto t0 = Clock::now();
    run_item();
    plain_s.push_back(since(t0));
    trace::clear();  // the per-thread rings must not wrap inside one item
    trace::set_enabled(true);
    t0 = Clock::now();
    run_item();
    traced_s.push_back(since(t0));
    trace::set_enabled(false);
    dropped += trace::dropped_count();
    spans.add(trace::snapshot());
  }
  trace::clear();
  const double n = items;
  const double eval_s = spans.total("model.model_eval") / n;
  r.put("model.eval_s", eval_s, "s");
  r.put("client.encrypt_s", spans.total("model.encrypt_input") / n, "s");
  r.put("client.decrypt_s", spans.total("model.decrypt_logits") / n, "s");
  r.put("stage.linear_s", spans.total("stage.linear") / n, "s");
  r.put("stage.activation_s", spans.total("stage.activation") / n, "s");
  for (const char* key :
       {"he.ntt_forward", "he.ntt_inverse", "he.ksw_inner", "he.mod_down",
        "he.relinearize", "he.rescale", "kernel.ksw_decompose"}) {
    r.put(std::string(key) + ".self_s", spans.self(key) / n, "s");
  }
  // Kernels that only one linear-layer path runs, as shares of evaluation
  // time (zero on the workloads that take the other path).
  for (const char* key :
       {"he.multiply_acc", "kernel.linear_bsgs", "kernel.bsgs_fused_group",
        "kernel.rotate_batch", "kernel.rotate_sum"}) {
    r.put(std::string(key) + ".share", spans.self(key) / n / eval_s, "ratio");
  }
  // ParallelSim records each channel loop's wall time and fan-out; on a
  // multi-core pool that time is already parallel, so simulate(nproc) over
  // the recorded sections discounts it a second time.
  const ParallelSim& sim = ParallelSim::global();
  const double simulated = sim.simulate(ThreadPool::default_thread_count());
  r.put("model.parallel_sim_ratio", simulated / sim.sequential_seconds(),
        "ratio");
  const double item_s = sum(plain_s) + sum(traced_s);
  r.put_drift("parallel_sim_item_s",
              (simulated + item_s - sim.sequential_seconds()) / (2 * n),
              item_s / (2 * n));
  r.put("trace.overhead_frac",
        quantile(traced_s, 0.5) / quantile(plain_s, 0.5) - 1.0, "ratio");
  r.put("trace.dropped", static_cast<double>(dropped), "count");
}

// ---------------------------------------------------------------------------
// In-process workloads: the HeModel client/cloud round trip in one process.
// ---------------------------------------------------------------------------

struct InProcess {
  Arch arch;
  bool encrypted_weights;
  std::size_t branches;
  std::size_t batch;
  int log_n;
};

/// One encrypt -> eval -> decrypt round trip; returns its wall time.
double round_trip(const HeModel& model, const Picked& picked,
                  std::size_t& next, Result& r) {
  std::vector<std::size_t> idx;
  std::vector<std::vector<float>> images;
  for (std::size_t b = 0; b < model.options().batch; ++b) {
    idx.push_back(next++ % picked.images.size());
    images.push_back(picked.images[idx.back()]);
  }
  const auto t0 = Clock::now();
  const std::vector<Ciphertext> inputs = images.size() == 1
                                             ? model.encrypt_input(images[0])
                                             : model.encrypt_batch(images);
  const Ciphertext out = model.eval(inputs);
  const std::vector<std::vector<double>> logits =
      model.decrypt_logits_batch(out);
  const double seconds = since(t0);
  for (std::size_t b = 0; b < idx.size(); ++b) {
    r.check(true, logits[b], picked.plain[idx[b]]);
  }
  return seconds;
}

void run_in_process(const Suite& suite, const InProcess& w, Result& r) {
  Experiment exp(experiment_config(suite));
  const ModelSpec spec = exp.spec(w.arch, Activation::kSlaf);
  const Picked picked =
      pick_images(exp.test_set(), spec, suite.seed, suite.smoke ? 8 : 64);
  const CkksParams params = params_at(w.log_n);
  HeModelOptions opts;
  opts.encrypted_weights = w.encrypted_weights;
  opts.rns_branches = w.branches;
  opts.batch = w.batch;
  std::size_t next = 0;

  // Set-up: key generation, compile, and the first answer (which also warms
  // the model up).
  struct Instance {
    std::unique_ptr<RnsBackend> backend;
    std::unique_ptr<HeModel> model;
  };
  std::vector<double> setup_s, compile_s;
  const auto set_up = [&] {
    Instance in;
    const auto t0 = Clock::now();
    in.backend = std::make_unique<RnsBackend>(params);
    in.model = std::make_unique<HeModel>(*in.backend, spec, opts);
    compile_s.push_back(since(t0));
    round_trip(*in.model, picked, next, r);
    setup_s.push_back(since(t0));
    return in;
  };
  Instance in = set_up();

  // Timed window, tracing off: closed loop, one client.
  std::vector<double> latency;
  const Snapshot before = Snapshot::read(*in.backend);
  const auto w0 = Clock::now();
  do {
    latency.push_back(round_trip(*in.model, picked, next, r));
  } while (since(w0) < suite.seconds && !suite.smoke);
  const Window win(before, Snapshot::read(*in.backend), *in.backend);
  const double evals = static_cast<double>(latency.size());
  const double images = evals * static_cast<double>(w.batch);

  r.info["samples"] = evals;
  r.info["latency_p90_s"] = quantile(latency, 0.9);
  r.put("latency_p50_s", quantile(latency, 0.5), "s");
  r.put("throughput_img_s", images / win.wall_s, "img/s");
  r.put("peak_rss_mb", peak_rss_mb(), "MB");
  if (suite.trace) {
    put_counter_metrics(r, win, images);
    put_plan_metrics(r, *in.model, win, evals);
    // The serving layers are not on this path: one evaluation packs `batch`
    // images, nothing queues, nothing crosses a socket.
    r.put("serve.batch_fill", 1.0, "ratio");
    r.put("serve.queue_share", 0.0, "ratio");
    r.put("serve.retries", 0.0, "count");
    r.put("serve.rejected", 0.0, "count");
    r.put("net.bytes_in_per_req", 0.0, "B");
    r.put("net.bytes_out_per_req", 0.0, "B");
    r.put("net.wire_share", 0.0, "ratio");
    put_kernel_metrics(r, *in.backend);
    traced_pass(r, suite.smoke ? 1 : 3,
                [&] { round_trip(*in.model, picked, next, r); });
  }
  in.model.reset();
  in.backend.reset();

  // More set-ups, only timed, so setup_s is a median. They come after the
  // window: memory the allocator keeps from a destroyed instance would
  // otherwise count in peak_rss_mb.
  for (int s = 1; s < (suite.smoke ? 1 : kSetups); ++s) set_up();
  r.put("setup_s", quantile(setup_s, 0.5), "s");
  if (suite.trace) {
    r.put("model.compile_s", quantile(compile_s, 0.5), "s");
    r.put("model.first_answer_s",
          quantile(setup_s, 0.5) - quantile(compile_s, 0.5), "s");
  }
}

// ---------------------------------------------------------------------------
// Serving workloads: NetServer -> BatchServer over loopback TCP, driven by
// generator threads that each own one NetClient connection.
// ---------------------------------------------------------------------------

constexpr std::size_t kConnections = 4;

/// One reply as a connection saw it.
struct Sample {
  double rtt_s = 0;                // send -> reply
  double queue_s = 0, eval_s = 0;  // server-reported (NetReply)
};

/// The stack `client_server --serve` runs: CNN1 with plaintext weights on
/// N=2^12, 2 workers, max batch 8 (the model set clamps it to 2), linger
/// 5 ms, queue 64, 4 sessions that have completed hello and key upload.
struct ServingStack {
  std::unique_ptr<RnsBackend> backend;
  std::unique_ptr<serve::BatchModelSet> models;
  std::unique_ptr<serve::BatchServer> server;
  std::unique_ptr<serve::net::NetServer> net;
  std::vector<std::unique_ptr<serve::net::NetClient>> clients;
  double compile_s = 0, handshake_s = 0, key_upload_s = 0;

  ServingStack(const ModelSpec& spec, const CkksParams& params) {
    const auto t0 = Clock::now();
    backend = std::make_unique<RnsBackend>(params);
    HeModelOptions base;
    base.encrypted_weights = false;
    models = std::make_unique<serve::BatchModelSet>(*backend, spec, base);
    // Compile every batch size the server can cut now, so no compile lands
    // inside the timed window.
    for (std::size_t b = 1; b <= models->max_batch(); b *= 2) {
      models->model_for(b);
    }
    compile_s = since(t0);
    serve::ServerOptions sopts;
    sopts.workers = 2;
    sopts.max_batch = 8;
    sopts.linger_ms = 5.0;
    sopts.queue_capacity = 64;
    sopts.serving.max_retries = 2;
    sopts.serving.watchdog_seconds = 60.0;
    server = std::make_unique<serve::BatchServer>(*models, sopts);
    net = std::make_unique<serve::net::NetServer>(*server, *backend);
    std::vector<double> hs, ku;
    for (std::size_t c = 0; c < kConnections; ++c) {
      serve::net::NetClientOptions copts;
      copts.port = net->port();
      copts.name = "bench_suite-" + std::to_string(c);
      auto t = Clock::now();
      clients.push_back(
          std::make_unique<serve::net::NetClient>(params, copts));
      hs.push_back(since(t));
      t = Clock::now();
      clients.back()->upload_keys({});
      ku.push_back(since(t));
    }
    handshake_s = quantile(hs, 0.5);
    key_upload_s = quantile(ku, 0.5);
  }

  ~ServingStack() {
    for (auto& c : clients) c->bye();
    clients.clear();
    if (net) net->shutdown();
    if (server) server->shutdown();
  }

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;
};

void run_served(const Suite& suite, Result& r) {
  Experiment exp(experiment_config(suite));
  const ModelSpec spec = exp.spec(Arch::kCnn1, Activation::kSlaf);
  const Picked picked =
      pick_images(exp.test_set(), spec, suite.seed, suite.smoke ? 8 : 64);
  const CkksParams params = params_at(12);

  std::mutex mu;  // guards r's tally and `samples`
  std::vector<Sample> samples;
  std::atomic<std::size_t> next{0};
  // One classification of the next picked image; only requests of the
  // timed window are `timed` samples.
  const auto classify = [&](serve::net::NetClient& client, bool timed) {
    const std::size_t img = next++ % picked.images.size();
    const auto sent = Clock::now();
    serve::net::NetReply reply;
    bool ok = false;
    try {
      reply = client.classify(picked.images[img]);
      ok = reply.ok && !reply.rejected && !reply.degraded;
    } catch (const Error& e) {
      std::fprintf(stderr, "classify failed: %s\n", e.what());
    }
    const double rtt = since(sent);
    std::lock_guard lock(mu);
    r.check(ok, reply.logits, picked.plain[img]);
    if (timed) {
      samples.push_back({rtt, reply.queue_seconds, reply.eval_seconds});
    }
  };

  // Set-up: backend, compile, server, sessions, and the first reply on
  // every session.
  std::vector<double> setup_s, compile_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto stack = std::make_unique<ServingStack>(spec, params);
    for (auto& client : stack->clients) classify(*client, false);
    setup_s.push_back(since(t0));
    compile_s.push_back(stack->compile_s);
    return stack;
  };
  std::unique_ptr<ServingStack> stack = set_up();

  // Timed window: closed loop, each connection sends its next request when
  // its previous reply lands.
  const serve::StatsSnapshot snap0 = stack->server->snapshot();
  const serve::net::NetServerStats net0 = stack->net->stats();
  const Snapshot before = Snapshot::read(*stack->backend);
  const auto w0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      do {
        classify(*stack->clients[c], true);
      } while (since(w0) < suite.seconds && !suite.smoke);
    });
  }
  for (auto& t : threads) t.join();
  const Window win(before, Snapshot::read(*stack->backend), *stack->backend);
  const serve::StatsSnapshot snap1 = stack->server->snapshot();
  const serve::net::NetServerStats net1 = stack->net->stats();

  std::vector<double> rtt, queue, eval, wire;
  for (const Sample& s : samples) {
    rtt.push_back(s.rtt_s);
    queue.push_back(s.queue_s);
    eval.push_back(s.eval_s);
    wire.push_back(s.rtt_s - s.queue_s - s.eval_s);
  }
  const double requests = static_cast<double>(samples.size());
  const double evals = static_cast<double>(snap1.batches - snap0.batches);
  r.info["samples"] = requests;
  r.info["latency_p90_s"] = quantile(rtt, 0.9);
  r.info["serve.queue_p50_s"] = quantile(queue, 0.5);
  r.info["serve.queue_p90_s"] = quantile(queue, 0.9);
  r.info["serve.eval_p50_s"] = quantile(eval, 0.5);
  r.info["net.wire_p50_s"] = quantile(wire, 0.5);
  r.info["net.handshake_s"] = stack->handshake_s;
  r.info["net.key_upload_s"] = stack->key_upload_s;
  r.put("latency_p50_s", quantile(rtt, 0.5), "s");
  r.put("throughput_img_s", requests / win.wall_s, "img/s");
  r.put("peak_rss_mb", peak_rss_mb(), "MB");
  if (suite.trace) {
    put_counter_metrics(r, win, requests);
    put_plan_metrics(r, stack->models->model_for(stack->models->max_batch()),
                     win, evals);
    r.put("serve.batch_fill",
          requests / (evals * static_cast<double>(stack->models->max_batch())),
          "ratio");
    r.put("serve.queue_share", sum(queue) / sum(rtt), "ratio");
    r.put("serve.retries", static_cast<double>(snap1.retries - snap0.retries),
          "count");
    r.put("serve.rejected",
          static_cast<double>(snap1.rejected_total - snap0.rejected_total),
          "count");
    r.put("net.bytes_in_per_req",
          static_cast<double>(net1.bytes_in - net0.bytes_in) / requests, "B");
    r.put("net.bytes_out_per_req",
          static_cast<double>(net1.bytes_out - net0.bytes_out) / requests,
          "B");
    r.put("net.wire_share", sum(wire) / sum(rtt), "ratio");
    put_kernel_metrics(r, *stack->backend);
    // Sequential requests on one session: each item is one batch-1 eval.
    traced_pass(r, suite.smoke ? 1 : 6,
                [&] { classify(*stack->clients[0], false); });
  }
  stack.reset();

  // More set-ups, only timed, so setup_s is a median (after the window, for
  // the reason run_in_process gives).
  for (int s = 1; s < (suite.smoke ? 1 : kSetups); ++s) set_up();
  r.put("setup_s", quantile(setup_s, 0.5), "s");
  if (suite.trace) {
    r.put("model.compile_s", quantile(compile_s, 0.5), "s");
    r.put("model.first_answer_s",
          quantile(setup_s, 0.5) - quantile(compile_s, 0.5), "s");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  Suite suite;
  const std::string workload = flags.get("workload", "");
  suite.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  suite.seconds = flags.get_double("seconds", 10.0);
  suite.trace = flags.get_int("trace", 0) != 0;
  suite.smoke = flags.has("smoke");
  suite.cache_dir = flags.get("cache-dir", ".bench_build/perfsuite-cache");

  Result r;
  try {
    if (workload == "cnn1-enc-k3") {
      run_in_process(suite, {Arch::kCnn1, true, 3, 1, 12}, r);
    } else if (workload == "cnn2-plain-n13") {
      run_in_process(suite, {Arch::kCnn2, false, 1, 4, 13}, r);
    } else if (workload == "serve-closed") {
      run_served(suite, r);
    } else {
      std::fprintf(stderr, "unknown --workload '%s'\n", workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  if (suite.trace) {
    r.put("ckks.max_logit_err", r.max_logit_err, "abs");
    r.put_drift("output_error", r.info["predicted_output_error"],
                r.max_logit_err);
  }
  std::printf("%s\n", r.json(workload).c_str());
  return r.failed == 0 ? 0 : 1;
}
