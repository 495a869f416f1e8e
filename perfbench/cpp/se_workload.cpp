// Workload `se_solve`: the SE scheduler alone against a quality target.
// Instances are shaped like Fig. 11 (α = 1.5, Ĉ = 1000·|I|, N_min = 0); the
// exact DP-U optimum of each is computed in set-up. An op constructs an
// SeScheduler and advances it until its utility is within 1% of the optimum;
// hitting the iteration cap first fails the op.
//
// Op j solves instance j mod |instances| with its own SE seed. The first
// pass over the instances (one op each) always runs in full; the exact
// counts are taken from it. The tail is taken over instances, each folded
// to its median time over SE seeds.

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "baselines/dynamic_programming.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "mvcom/problem.hpp"
#include "mvcom/se_scheduler.hpp"
#include "txn/trace_generator.hpp"
#include "txn/workload.hpp"

namespace perfbench {
namespace {

using mvcom::common::Rng;
using mvcom::core::EpochInstance;
using mvcom::core::Selection;

constexpr double kTargetGap = 0.01;  // within 1% of the optimum
constexpr std::size_t kIterationCap = 20'000;

struct SeCase {
  EpochInstance instance;
  double optimum = 0.0;
};

struct SeInputs {
  std::vector<SeCase> cases;
  std::uint64_t fingerprint = 0;
};

/// One instance of `size` committees on its own block trace, with its exact
/// optimum.
SeCase exact_case(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  const auto trace = mvcom::txn::generate_trace({}, rng);
  mvcom::txn::WorkloadConfig wc;
  wc.num_committees = size;
  const mvcom::txn::WorkloadGenerator generator(trace, wc);
  const auto workload = generator.epoch(rng);
  const std::uint64_t capacity = 1000 * size;
  EpochInstance instance = EpochInstance::from_reports(
      workload.reports, /*alpha=*/1.5, capacity, /*n_min=*/0);
  // DP-U with one bucket per TX: the exact Eq.-(2) optimum.
  mvcom::baselines::DpParams dp;
  dp.max_buckets = capacity;
  dp.objective = mvcom::baselines::DpObjective::kUtility;
  const auto exact = mvcom::baselines::DynamicProgramming(dp).solve(instance);
  if (!exact.feasible) throw std::runtime_error("se_solve: DP-U infeasible");
  return {std::move(instance), exact.utility};
}

SeInputs build_inputs(const Options& options) {
  const std::size_t count = options.tiny ? 4 : 48;
  const std::size_t size = options.tiny ? 50 : 300;
  // The optima are independent, so they are computed on four threads.
  std::vector<std::optional<SeCase>> cases(count);
  {
    mvcom::common::ThreadPool pool(3);
    pool.parallel_for(count, [&](std::size_t i) {
      cases[i] = exact_case(size, Rng::stream(options.seed, 100 + i)());
    });
  }
  SeInputs in;
  in.fingerprint = mvcom::common::kFnv1aBasis;
  for (auto& c : cases) {
    in.fingerprint = mvcom::common::fnv1a_mix(
        in.fingerprint, std::bit_cast<std::uint64_t>(c->optimum));
    in.cases.push_back(std::move(*c));
  }
  return in;
}

mvcom::core::SeParams se_params() {
  mvcom::core::SeParams params;
  params.threads = 4;
  params.parallel_execution = true;
  params.max_pool_workers = 3;
  return params;
}

/// What the exact counts and quality metrics need of one answer.
struct Answer {
  std::uint64_t utility_bits = 0;
  std::size_t iterations = 0;
  std::uint64_t permitted_txs = 0;
  double age_tx_seconds = 0.0;  // Σ over permitted TXs of their shard's age
  std::uint64_t total_txs = 0;
};

struct LoopStats {
  std::vector<double> op_ms;
  std::vector<std::size_t> op_keys;  // the instance each op solved
  double wall_s = 0.0;
  std::uint64_t permitted_txs = 0;
  std::vector<Answer> first_pass;
  std::vector<double> ctor_ms;
  double advance_ms = 0.0;
  std::size_t iterations = 0;
  RssWindows rss;  // one window per op
};

Answer solve(const SeCase& c, std::uint64_t se_seed, std::uint64_t op,
             Outcome& out, LoopStats& stats, SpanLog* spans) {
  const auto t0 = Clock::now();
  const mvcom::core::SeParams params = se_params();
  mvcom::core::SeScheduler se(c.instance, params, se_seed);
  const auto t1 = Clock::now();
  // The target is checked at every share point, so the explorers meet at
  // the same barriers as in SeScheduler::run(). Checking more often adds a
  // pool wake-up per check, which on a shared host made the op time follow
  // the host's load more than the code.
  const std::size_t block = params.share_interval;
  const double target = c.optimum - kTargetGap * std::abs(c.optimum);
  Answer a;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> blocks;
  double utility = se.current_utility();
  while (!(utility >= target) && a.iterations < kIterationCap) {
    const auto b0 = Clock::now();
    se.advance(block);
    const auto b1 = Clock::now();
    if (spans != nullptr) blocks.emplace_back(b0, b1);
    stats.advance_ms += ms_between(b0, b1);
    a.iterations += block;
    utility = se.current_utility();
  }
  const auto t2 = Clock::now();
  stats.op_ms.push_back(ms_between(t0, t2));
  stats.ctor_ms.push_back(ms_between(t0, t1));
  stats.iterations += a.iterations;
  if (spans != nullptr) {
    const std::uint64_t id = spans->record("se.solve", 0, op, t0, t2);
    spans->record("se.ctor", id, op, t0, t1);
    for (const auto& [b0, b1] : blocks) {
      spans->record("se.advance", id, op, b0, b1);
    }
  }

  const EpochInstance& inst = c.instance;
  const Selection x = se.current_selection();
  const bool reached = utility >= target;
  const bool feasible = x.size() == inst.size() && inst.feasible(x);
  out.check(feasible, "se_solve: answer is not feasible");
  const double answer = feasible ? inst.utility(x) : 0.0;
  const bool bounded =
      answer <= c.optimum + 1e-9 * std::max(1.0, std::abs(c.optimum));
  out.check(bounded, "se_solve: answer exceeds the DP-U optimum");
  out.op(reached && feasible && bounded);
  a.utility_bits = std::bit_cast<std::uint64_t>(answer);
  a.total_txs = inst.total_txs();
  if (feasible) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i] == 0) continue;
      const auto txs = inst.committees()[i].txs;
      a.permitted_txs += txs;
      a.age_tx_seconds += static_cast<double>(txs) * inst.age(i);
    }
  }
  stats.permitted_txs += a.permitted_txs;
  return a;
}

/// Closed loop over ops 0, 1, 2, ... until the budget is spent, and at
/// least through the first pass.
LoopStats run_loop(const Options& options, const SeInputs& in, Outcome& out,
                   SpanLog* spans) {
  LoopStats stats;
  const std::size_t n = in.cases.size();
  const auto t0 = Clock::now();
  for (std::uint64_t op = 0;
       op < n || ms_since(t0) < options.seconds * 1000.0; ++op) {
    stats.rss.begin();
    const Answer a = solve(in.cases[op % n],
                           Rng::stream(options.seed, 1000 + op)(), op, out,
                           stats, spans);
    stats.rss.end();
    stats.op_keys.push_back(op % n);
    if (op < n) stats.first_pass.push_back(a);
  }
  stats.wall_s = ms_since(t0) / 1000.0;
  return stats;
}

}  // namespace

void run_se_solve(const Options& options, Outcome& out) {
  const SeInputs in =
      repeated_setup(options, out, [&] { return build_inputs(options); });
  const LoopStats timed = run_loop(options, in, out, nullptr);

  std::uint64_t iterations = 0;
  std::uint64_t permitted = 0;
  std::uint64_t total = 0;
  double age = 0.0;
  std::uint64_t answers = mvcom::common::kFnv1aBasis;
  for (const Answer& a : timed.first_pass) {
    iterations += a.iterations;
    permitted += a.permitted_txs;
    total += a.total_txs;
    age += a.age_tx_seconds;
    answers = mvcom::common::fnv1a_mix(answers, a.utility_bits);
  }
  out.info("instances", static_cast<std::uint64_t>(in.cases.size()));
  out.info("first_pass_iterations_to_target", iterations);
  out.info("first_pass_permitted_txs", permitted);
  out.info_hex("first_pass_answers_digest", answers);
  if (!options.trace) {
    add_end_to_end(out, timed.op_ms, timed.op_keys, timed.wall_s, timed.rss,
                   {timed.permitted_txs, age, permitted, total});
    return;
  }

  SpanLog spans;
  const LoopStats traced = run_loop(options, in, out, &spans);
  const double per_op = static_cast<double>(iterations) /
                        static_cast<double>(in.cases.size());
  out.metric("se.ctor_ms", median(traced.ctor_ms), "ms");
  out.metric("se.iters_per_s",
             static_cast<double>(traced.iterations) /
                 (traced.advance_ms / 1000.0),
             "1/s");
  out.metric("se.iters_to_target", per_op, "count");
  out.metric("se.iterations_per_epoch", per_op, "count");
  add_trace_overhead(out, timed.op_ms.size(), timed.wall_s,
                     traced.op_ms.size(), traced.wall_s);
  write_spans(options, spans, out);
}

}  // namespace perfbench
