#pragma once
// RunExecutor — the concurrency layer under maestro's orchestration stack.
//
// The paper's orchestration constructs are explicitly concurrent: Fig. 7
// schedules "5 concurrent samples" per bandit iteration, GWTW advances a
// population of optimization threads, and Section 2's N robot engineers are
// "constrained chiefly by compute and license resources". RunExecutor makes
// that real: a fixed-size pool of worker threads fed from a FIFO queue,
// gated by a license semaphore (licenses <= threads models a tool-license
// pool smaller than the machine), with futures-based result collection and
// a RunJournal recording every run's queue wait and wall time.
//
// Determinism contract (enforced by tests/test_exec.cpp): callers derive
// each run's RNG seed from (base seed, run index) via derive_run_seed and
// never share an Rng across pooled work, so results are bitwise identical
// no matter the thread count — MAESTRO_THREADS=1 and =8 produce the same
// samples, in the same order. Resilience preserves the contract: retry
// seeds derive purely from (base seed, attempt) and a hedged twin shares
// its attempt's seed, so the winning value is the same whichever twin wins.
//
// One submission path: submit(label, seed, fn, SubmitOptions, memo).
//
// Cancellation: every run carries the caller's CancelToken
// (SubmitOptions::cancel). Requesting cancellation while the run is queued
// skips it entirely (the future throws RunCancelled); mid-run it is
// cooperative — the work polls RunContext::should_stop() (e.g. the
// detailed-route iteration loop) and returns early, which releases the
// license and journals the run as Cancelled while still delivering the
// partial result through the future.
//
// Resilience: with any SubmitOptions::resilience knob set, the run is a
// logical run of retried and hedged attempts. Its deadline arms a watchdog
// on the executor's timer thread that cancels every attempt — even a body
// that only polls its CancelToken is reeled in, journaled TimedOut and its
// license released — and fails the caller's future with
// resil::RunTimedOut. With every knob off the run is one plain attempt.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/journal.hpp"
#include "obs/registry.hpp"
#include "resil/fault.hpp"
#include "resil/retry.hpp"

namespace maestro::exec {

/// Thrown through the future of a run cancelled before it started.
struct RunCancelled : std::runtime_error {
  RunCancelled() : std::runtime_error("run cancelled before start") {}
};

struct ExecOptions {
  /// Worker threads. 0 = MAESTRO_THREADS env override, else hardware
  /// concurrency (at least 1).
  std::size_t threads = 0;
  /// License semaphore gating admission. 0 = same as threads.
  std::size_t licenses = 0;
};

/// MAESTRO_THREADS env override if set (clamped to [1, 256]), else
/// std::thread::hardware_concurrency(), else 1.
std::size_t default_thread_count();

/// Per-run settings of RunExecutor::submit.
struct SubmitOptions {
  /// The caller's token for the logical run.
  CancelToken cancel{};
  /// Retry, hedging and deadline; all off by default.
  resil::ResilOptions resilience{};
};

/// The default `memo` of RunExecutor::submit: no memoization.
struct NoMemo {};

class RunExecutor {
 public:
  explicit RunExecutor(ExecOptions opt = {});
  /// Joins after draining the queue: queued runs still execute. Pending
  /// timer actions (hedges, backoff retries, watchdogs) are dropped, so
  /// destroy the executor only after resilient futures have resolved.
  ~RunExecutor();

  RunExecutor(const RunExecutor&) = delete;
  RunExecutor& operator=(const RunExecutor&) = delete;

  std::size_t threads() const { return workers_.size(); }
  std::size_t licenses() const { return license_total_; }
  /// Licenses currently held by running work (for tests / dashboards).
  std::size_t licenses_in_use() const;

  RunJournal& journal() { return journal_; }
  const RunJournal& journal() const { return journal_; }

  /// Submit one logical run; the returned future carries its result. `fn`
  /// is invoked as fn(RunContext&) on a worker thread once a license is
  /// available.
  ///
  /// `opt.resilience`: each attempt's seed derives from (seed, attempt) via
  /// resil::retry_seed — RunContext::seed is the attempt seed, attempt 0
  /// keeps `seed`. A failed attempt retries after the policy's backoff; a
  /// hedge twin of the newest attempt launches after the hedge delay
  /// (default: journal wall p95) with the *same* seed and the first
  /// completion wins. The deadline fails the future with resil::RunTimedOut
  /// and cancelling `opt.cancel` fails it with RunCancelled, cancelling every
  /// attempt either way. Each attempt consults the fault injector at site
  /// "exec.license". The result type must then be copy-constructible.
  ///
  /// `memo`, unless NoMemo or an empty std::optional, is a copyable cache
  /// handle bound to this run — std::uint64_t fingerprint(),
  /// std::optional<R> lookup(std::uint64_t) and
  /// void insert(std::uint64_t, const R&), e.g. store::KeyedRunCache — that
  /// is copied into the pooled task. It is consulted first: a hit resolves
  /// immediately, journaled Completed with note "cache_hit" and no license;
  /// a miss dispatches and memoizes the result unless the run was cancelled
  /// mid-run (partial results must not poison the cache). A fingerprint
  /// already in flight is joined instead of run twice (exec.inflight_joins):
  /// the join is a promise-backed future, settled and journaled (note
  /// "inflight_join") with the run's terminal state, and the first
  /// submission's token and policy stay in charge. One fingerprint must keep
  /// one result type (else std::logic_error). A resilient run that
  /// exhausted its retries or timed out keeps its entry, so later joiners
  /// share the error; a cancelled one releases the fingerprint for a re-run.
  template <typename F, typename Memo = NoMemo>
  auto submit(std::string label, std::uint64_t seed, F fn, SubmitOptions opt = {},
              Memo memo = {}) -> std::future<std::invoke_result_t<F&, RunContext&>> {
    if constexpr (!std::is_same_v<Memo, NoMemo>) {
      if (auto* cache = memo_handle(memo)) {
        return memoized(std::move(label), seed, std::move(fn), std::move(opt),
                        std::move(*cache));
      }
    }
    return dispatch(std::move(label), seed, std::move(fn), std::move(opt), {});
  }

  /// Fan out n runs whose seeds derive from (base_seed, index) and collect
  /// the results in index order (a barrier). Result i is independent of
  /// scheduling, so map() is deterministic at any thread count.
  template <typename F>
  auto map(const std::string& label, std::uint64_t base_seed, std::size_t n, F fn)
      -> std::vector<std::invoke_result_t<F&, std::size_t, RunContext&>> {
    using R = std::invoke_result_t<F&, std::size_t, RunContext&>;
    std::vector<std::future<R>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(submit(label + "#" + std::to_string(i), derive_run_seed(base_seed, i),
                               [fn, i](RunContext& ctx) { return fn(i, ctx); }));
    }
    std::vector<R> results;
    results.reserve(n);
    for (auto& f : futures) results.push_back(f.get());
    return results;
  }

  /// Run `fn` on the executor's timer thread at (or shortly after) `tp`.
  /// Used by the resilience layer for deadline watchdogs, hedge launches
  /// and backoff-delayed retries; dropped if the executor is stopping.
  void schedule_at(std::chrono::steady_clock::time_point tp, std::function<void()> fn);

 private:
  /// Final state plus the journal note (error text for Failed runs).
  struct Outcome {
    RunState state = RunState::Completed;
    std::string note;
  };

  struct Task {
    std::uint64_t run_id = 0;
    std::string label;  ///< for the run's trace span
    std::uint64_t seed = 0;
    CancelToken cancel;
    std::chrono::steady_clock::time_point deadline{};
    /// Invoked with run=true to execute (returns the final outcome) or
    /// run=false to park the cancelled/timed-out-before-start exception.
    std::function<Outcome(RunContext&, bool run)> body;
    /// Resolves the caller's future from the parked result; called after
    /// the journal records the terminal state.
    std::function<void()> deliver;
  };

  /// One in-flight memoized run. Joiners park a promise here; whichever
  /// settle path resolves the run first (worker success, failure, skip
  /// abort, resilient on_fail) fulfils every parked promise with the
  /// terminal value/error and journals each joiner's row with the run's
  /// real terminal state, note "inflight_join". Settling is idempotent —
  /// the first settle wins, later calls are no-ops — and after `done` the
  /// value/error/state fields are immutable, so post-settle joins read them
  /// without re-locking hazards.
  template <typename R>
  struct MemoEntry {
    struct Waiter {
      std::promise<R> promise;
      std::uint64_t run_id = 0;
    };

    std::mutex mu;
    bool done = false;
    RunState state = RunState::Completed;
    std::optional<R> value;
    std::exception_ptr error;
    std::vector<Waiter> waiters;

    /// Settle with the run's value, or with `e` when it ended without one.
    void settle(RunState s, std::optional<R> v, std::exception_ptr e, RunJournal& journal) {
      std::vector<Waiter> pending;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (done) return;
        done = true;
        state = s;
        value = std::move(v);
        error = e;
        pending.swap(waiters);
      }
      for (auto& w : pending) {
        journal.on_finish(w.run_id, s, "inflight_join");
        if (error) w.promise.set_exception(error);
        else w.promise.set_value(*value);
      }
    }

    /// Promise-backed join: ready immediately when already settled, else
    /// parked until a settle path fires.
    std::future<R> join(std::uint64_t run_id, RunJournal& journal) {
      std::unique_lock<std::mutex> lk(mu);
      if (done) {
        lk.unlock();
        journal.on_finish(run_id, state, "inflight_join");
        std::promise<R> ready;
        if (error) ready.set_exception(error);
        else ready.set_value(*value);
        return ready.get_future();
      }
      Waiter w;
      w.run_id = run_id;
      std::future<R> fut = w.promise.get_future();
      waiters.push_back(std::move(w));
      return fut;
    }
  };

  /// Type-erased MemoEntry<R> plus the R it was erased from, so a
  /// fingerprint resubmitted with a different result type is detected
  /// instead of being static-cast into undefined behavior.
  struct MemoSlot {
    std::shared_ptr<void> entry;
    std::type_index type;
  };

  /// Settle hook of a run that ends without a value: the terminal state and
  /// the exception the caller's future will deliver.
  using OnError = std::function<void(RunState, std::exception_ptr)>;

  static std::chrono::steady_clock::duration to_duration(double ms) {
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
  }

  /// The cache handle inside a `memo` argument, or null for an empty
  /// std::optional.
  template <typename M>
  static M* memo_handle(M& memo) {
    return &memo;
  }
  template <typename M>
  static M* memo_handle(std::optional<M>& memo) {
    return memo ? &*memo : nullptr;
  }

  /// The mechanism behind submit(): one plain attempt, or the resilient
  /// launcher when any resilience knob is set. The launcher takes `fn` type-
  /// erased, so it is compiled once per result type, not once per caller.
  template <typename F>
  auto dispatch(std::string label, std::uint64_t seed, F fn, SubmitOptions opt,
                OnError on_error) -> std::future<std::invoke_result_t<F&, RunContext&>> {
    using R = std::invoke_result_t<F&, RunContext&>;
    if (opt.resilience.enabled()) {
      return launch_resilient<R>(std::move(label), seed, std::move(fn), opt.resilience,
                                 std::move(opt.cancel), std::move(on_error));
    }
    return run_once(std::move(label), seed, std::move(fn), std::move(opt.cancel), {},
                    std::move(on_error));
  }

  /// submit() with a cache handle: cache hit, in-flight join, or a
  /// dispatched run that memoizes its result and settles joiners.
  template <typename F, typename Cache>
  auto memoized(std::string label, std::uint64_t seed, F fn, SubmitOptions opt, Cache cache)
      -> std::future<std::invoke_result_t<F&, RunContext&>> {
    using R = std::invoke_result_t<F&, RunContext&>;
    const std::uint64_t fingerprint = cache.fingerprint();
    if (auto hit = cache.lookup(fingerprint)) {
      const std::uint64_t run_id = journal_.on_enqueue(std::move(label), seed);
      journal_.on_finish(run_id, RunState::Completed, "cache_hit");
      obs::Registry::global().counter("exec.cache_hits").add();
      std::promise<R> ready;
      ready.set_value(std::move(*hit));
      return ready.get_future();
    }
    std::unique_lock<std::mutex> memo_lock(memo_mu_);
    if (auto it = memo_inflight_.find(fingerprint); it != memo_inflight_.end()) {
      if (it->second.type != std::type_index(typeid(R))) {
        throw std::logic_error("submit: fingerprint resubmitted with a different result type");
      }
      auto entry = std::static_pointer_cast<MemoEntry<R>>(it->second.entry);
      memo_lock.unlock();
      const std::uint64_t run_id = journal_.on_enqueue(std::move(label), seed);
      obs::Registry::global().counter("exec.inflight_joins").add();
      return entry->join(run_id, journal_);
    }
    auto entry = std::make_shared<MemoEntry<R>>();
    memo_inflight_.emplace(fingerprint, MemoSlot{entry, std::type_index(typeid(R))});
    memo_lock.unlock();

    const bool single_shot = !opt.resilience.enabled();
    auto wrapped = [this, cache = std::move(cache), fingerprint, fn = std::move(fn),
                    single_shot, entry](RunContext& ctx) mutable -> R {
      try {
        R result = fn(ctx);
        if (!ctx.should_stop()) {
          cache.insert(fingerprint, result);
          entry->settle(RunState::Completed, result, nullptr, this->journal_);
          this->memo_erase(fingerprint);
        } else if (single_shot) {
          // Partial result: joiners receive it (same as the submitter) but
          // the fingerprint is released so a later submission re-runs.
          entry->settle(RunState::Cancelled, result, nullptr, this->journal_);
          this->memo_erase(fingerprint);
        }
        return result;
      } catch (...) {
        if (single_shot) {
          entry->settle(RunState::Failed, std::nullopt, std::current_exception(),
                        this->journal_);
          this->memo_erase(fingerprint);
        }
        throw;
      }
    };
    // A run that ends without a value — skipped while queued, or a resilient
    // run out of retries, past its deadline or cancelled by the caller —
    // settles joiners with the same exception. Only cancellation frees the
    // fingerprint: Failed/TimedOut entries stay so later joiners share the
    // error instead of re-crashing.
    auto on_error = [this, entry, fingerprint](RunState s, std::exception_ptr e) {
      entry->settle(s, std::nullopt, e, this->journal_);
      if (s == RunState::Cancelled) this->memo_erase(fingerprint);
    };
    return dispatch(std::move(label), seed, std::move(wrapped), std::move(opt),
                    std::move(on_error));
  }

  /// One plain attempt. Only a resilient run's attempts carry a `deadline`.
  /// `on_abort` fires if the run is skipped while queued, with the state and
  /// exception its future will deliver.
  template <typename F>
  auto run_once(std::string label, std::uint64_t seed, F fn, CancelToken cancel,
                std::chrono::steady_clock::time_point deadline, OnError on_abort)
      -> std::future<std::invoke_result_t<F&, RunContext&>> {
    using R = std::invoke_result_t<F&, RunContext&>;
    static_assert(!std::is_void_v<R>, "pooled runs must return a result");
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> fut = promise->get_future();
    // The worker journals the final state *before* deliver() resolves the
    // future, so a caller unblocked by get() always observes the run's
    // terminal journal entry. The body therefore parks the result here
    // instead of fulfilling the promise itself.
    struct Slot {
      std::optional<R> value;
      std::exception_ptr error;
    };
    auto slot = std::make_shared<Slot>();
    Task task;
    task.label = label;
    task.run_id = journal_.on_enqueue(std::move(label), seed);
    task.seed = seed;
    task.cancel = cancel;
    task.deadline = deadline;
    task.body = [slot, fn = std::move(fn),
                 on_abort = std::move(on_abort)](RunContext& ctx, bool run) mutable -> Outcome {
      if (!run) {
        if (ctx.past_deadline()) {
          slot->error = std::make_exception_ptr(resil::RunTimedOut{});
          if (on_abort) on_abort(RunState::TimedOut, slot->error);
          return {RunState::TimedOut, "deadline"};
        }
        slot->error = std::make_exception_ptr(RunCancelled{});
        if (on_abort) on_abort(RunState::Cancelled, slot->error);
        return {RunState::Cancelled, {}};
      }
      try {
        slot->value.emplace(fn(ctx));
      } catch (const std::exception& e) {
        slot->error = std::current_exception();
        return {RunState::Failed, e.what()};
      } catch (...) {
        slot->error = std::current_exception();
        return {RunState::Failed, "unknown error"};
      }
      if (ctx.past_deadline()) return {RunState::TimedOut, "deadline"};
      return {ctx.cancel.cancelled() ? RunState::Cancelled : RunState::Completed, {}};
    };
    task.deliver = [slot, promise]() {
      if (slot->error) promise->set_exception(slot->error);
      else promise->set_value(std::move(*slot->value));
    };
    enqueue(std::move(task));
    return fut;
  }

  /// The resilient launcher (see submit()). The caller's token has no
  /// callback hook, so it is polled on the timer thread (~5 ms cadence)
  /// until the run settles. `on_fail` fires once, before the future
  /// observes it, if the run settles with an exception: (Failed, the last
  /// error), (TimedOut, RunTimedOut) or (Cancelled, RunCancelled).
  template <typename R>
  std::future<R> launch_resilient(std::string label, std::uint64_t seed,
                                  std::function<R(RunContext&)> fn, resil::ResilOptions opt,
                                  CancelToken cancel, OnError on_fail) {
    static_assert(std::is_copy_constructible_v<R>,
                  "resilient runs copy the winning result into the promise");
    using Clock = std::chrono::steady_clock;
    struct State {
      std::mutex mu;
      std::promise<R> promise;
      bool settled = false;
      int reserved = 1;    ///< primary attempts reserved (incl. pending backoff)
      int launched = 0;    ///< primary attempts handed to the pool
      int dispatched = 0;  ///< attempts handed to the pool (incl. hedges)
      int failed = 0;      ///< dispatched attempts that have thrown
      bool hedged = false;
      std::vector<CancelToken> tokens;  ///< every live attempt's token
      resil::ResilOptions opt;
      std::string label;
      std::uint64_t base_seed = 0;
      Clock::time_point deadline{};
      /// Invoked once, after the promise settles with an exception.
      OnError on_fail;
    };
    auto st = std::make_shared<State>();
    st->opt = opt;
    st->label = std::move(label);
    st->base_seed = seed;
    st->on_fail = std::move(on_fail);
    if (opt.deadline_ms > 0.0) st->deadline = Clock::now() + to_duration(opt.deadline_ms);
    std::future<R> fut = st->promise.get_future();

    // Recursive launcher. It captures itself weakly — the strong refs live
    // in the attempt bodies and pending timer actions, so the closure chain
    // is released once the last attempt finishes (no shared_ptr cycle).
    using Launch = std::function<void(int, bool)>;
    auto launch = std::make_shared<Launch>();
    *launch = [this, st, fn = std::move(fn),
               wlaunch = std::weak_ptr<Launch>(launch)](int attempt, bool is_hedge) mutable {
      auto self = wlaunch.lock();
      if (!self) return;
      CancelToken token;
      {
        std::lock_guard<std::mutex> lk(st->mu);
        if (st->settled) return;
        if (!is_hedge) st->launched = attempt + 1;
        ++st->dispatched;
        st->tokens.push_back(token);
      }
      std::string attempt_label = st->label;
      if (is_hedge) attempt_label += "~hedge";
      else if (attempt > 0) attempt_label += "~retry" + std::to_string(attempt);
      const std::uint64_t attempt_seed =
          resil::retry_seed(st->base_seed, attempt, st->opt.retry.perturb_seed);

      auto body = [this, st, fn, self, attempt, is_hedge](RunContext& ctx) mutable -> R {
        try {
          if (resil::FaultInjector::decide("exec.license", ctx.seed) ==
              resil::FaultKind::LicenseDrop) {
            obs::Registry::global().counter("resil.fault_license_drop").add();
            throw resil::LicenseDropped{"exec.license"};
          }
          R value = fn(ctx);
          if (ctx.should_stop()) {
            // Cancelled loser or overdue attempt: never settle from here —
            // the winning twin or the deadline watchdog owns the promise.
            // The worker journals this attempt Cancelled / TimedOut.
            return value;
          }
          std::vector<CancelToken> losers;
          bool won = false;
          {
            std::lock_guard<std::mutex> lk(st->mu);
            if (!st->settled) {
              st->settled = true;
              won = true;
              for (const auto& t : st->tokens) {
                if (!t.same_as(ctx.cancel)) losers.push_back(t);
              }
            }
          }
          if (won) {
            st->promise.set_value(value);
            for (auto& t : losers) t.request_cancel();
            if (is_hedge) obs::Registry::global().counter("exec.hedge_wins").add();
          }
          return value;
        } catch (...) {
          bool do_retry = false;
          bool exhausted = false;
          const int next = attempt + 1;
          if (!ctx.past_deadline()) {  // past deadline: the watchdog settles
            std::lock_guard<std::mutex> lk(st->mu);
            if (!st->settled) {
              ++st->failed;
              if (next < st->opt.retry.max_attempts && st->reserved == next) {
                st->reserved = next + 1;
                do_retry = true;
              } else if (st->reserved == st->launched &&
                         st->failed == st->dispatched) {
                // Every attempt handed to the pool has failed and no retry
                // is pending anywhere: the logical run is out of options.
                // (Counting failures, not live attempts, keeps this correct
                // while an earlier failed attempt is still unwinding.)
                st->settled = true;
                exhausted = true;
              }
            }
          }
          if (do_retry) {
            obs::Registry::global().counter("exec.retries").add();
            const double backoff = st->opt.retry.backoff_for(next);
            if (backoff <= 0.0) {
              (*self)(next, /*is_hedge=*/false);
            } else {
              this->schedule_at(Clock::now() + to_duration(backoff),
                                [self, next] { (*self)(next, /*is_hedge=*/false); });
            }
          }
          if (exhausted) {
            const std::exception_ptr err = std::current_exception();
            if (st->on_fail) st->on_fail(RunState::Failed, err);
            st->promise.set_exception(err);
          }
          throw;  // journal this attempt as Failed
        }
      };
      this->run_once(std::move(attempt_label), attempt_seed, std::move(body), token,
                     st->deadline, {});
    };

    (*launch)(0, /*is_hedge=*/false);
    if (opt.hedge.enabled) {
      double delay = opt.hedge.delay_ms;
      if (delay < 0.0) delay = std::max(1.0, journal_.summarize().wall_p95_ms);
      schedule_at(Clock::now() + to_duration(delay), [st, launch] {
        int attempt = 0;
        {
          std::lock_guard<std::mutex> lk(st->mu);
          if (st->settled || st->hedged) return;
          st->hedged = true;
          attempt = st->launched > 0 ? st->launched - 1 : 0;
        }
        obs::Registry::global().counter("exec.hedges").add();
        (*launch)(attempt, /*is_hedge=*/true);
      });
    }
    // Deadline expiry and caller cancellation settle the run from the timer
    // thread (unless an attempt already did) and cancel every live attempt.
    const auto abort_run = [st](RunState state, std::exception_ptr err) {
      std::vector<CancelToken> live;
      {
        std::lock_guard<std::mutex> lk(st->mu);
        if (st->settled) return;
        st->settled = true;
        live = st->tokens;
      }
      for (auto& t : live) t.request_cancel();
      if (st->on_fail) st->on_fail(state, err);
      st->promise.set_exception(err);
    };
    if (opt.deadline_ms > 0.0) {
      schedule_at(st->deadline, [abort_run] {
        abort_run(RunState::TimedOut, std::make_exception_ptr(resil::RunTimedOut{}));
      });
    }
    // The caller's token has no callback hook, so a lightweight poll on
    // the timer thread watches it. Polling stops (and the chain is
    // released) once the run settles.
    auto poll = std::make_shared<std::function<void()>>();
    *poll = [this, st, cancel, abort_run,
             wpoll = std::weak_ptr<std::function<void()>>(poll)] {
      auto self = wpoll.lock();
      if (!self) return;
      if (cancel.cancelled()) {
        abort_run(RunState::Cancelled, std::make_exception_ptr(RunCancelled{}));
        return;
      }
      {
        std::lock_guard<std::mutex> lk(st->mu);
        if (st->settled) return;
      }
      this->schedule_at(Clock::now() + to_duration(5.0), [self] { (*self)(); });
    };
    (*poll)();
    return fut;
  }

  void enqueue(Task task);
  void worker_loop();
  void timer_loop();
  void acquire_license();
  void release_license();
  void memo_erase(std::uint64_t fingerprint);

  ExecOptions opt_;
  RunJournal journal_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;    ///< workers wait for tasks
  std::condition_variable license_cv_;  ///< workers wait for licenses
  std::condition_variable timer_cv_;    ///< timer thread waits for deadlines
  std::deque<Task> queue_;
  std::multimap<std::chrono::steady_clock::time_point, std::function<void()>>
      timer_queue_;  ///< guarded by mu_
  std::size_t license_total_ = 0;
  std::size_t licenses_free_ = 0;
  bool stopping_ = false;
  bool timer_started_ = false;

  std::mutex memo_mu_;
  /// fingerprint -> typed MemoEntry<R> of the in-flight (or terminally
  /// failed resilient) run.
  std::unordered_map<std::uint64_t, MemoSlot> memo_inflight_;

  std::vector<std::thread> workers_;
  std::thread timer_;
};

}  // namespace maestro::exec
