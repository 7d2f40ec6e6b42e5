#include "spans.hpp"

#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

/**
 * One thread's aggregates. Only the owning thread writes; merge() reads
 * after the pool has joined the traced work, so relaxed atomics suffice
 * to keep the cross-thread read free of data races.
 */
struct ThreadSpans
{
    struct Acc
    {
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> total_ns{0};
        std::atomic<std::uint64_t> self_ns{0};
        std::atomic<std::uint64_t> top_ns{0};
    };

    /** An open span's share of its children, per nesting level. */
    static constexpr int kMaxDepth = 32;

    std::array<Acc, kSpanCount> acc;
    std::array<std::uint64_t, kMaxDepth> child_ns{};
    int depth = 0;
    bool main = false;
};

std::mutex registry_mutex;
/** Owns every thread's aggregates; pool threads live until exit. */
std::vector<std::unique_ptr<ThreadSpans>> registry;

ThreadSpans &
local()
{
    thread_local ThreadSpans *spans = [] {
        auto owned = std::make_unique<ThreadSpans>();
        ThreadSpans *raw = owned.get();
        std::lock_guard<std::mutex> lock(registry_mutex);
        registry.push_back(std::move(owned));
        return raw;
    }();
    return *spans;
}

void
add(std::atomic<std::uint64_t> &slot, std::uint64_t v)
{
    slot.store(slot.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
}

constexpr const char *kNames[kSpanCount] = {
    "sched.policy.init",
    "sched.policy.call",
    "env.field.query",
    "harness.bakeoff.batch_cell",
    "harness.bakeoff.scalar_cell",
    "harness.bakeoff.rank",
    "fleet.run",
    "fleet.report",
    "env.trace.encode",
    "env.trace.decode",
    "env.trace.downsample",
    "sched.trials.replay",
    "telemetry.export",
    "harness.ground_truth",
    "harness.vsafe_cache.hit",
    "harness.baselines",
    "harness.profiling",
    "core.vsafe_pg",
    "core.culpeo_r",
};

} // namespace

std::atomic<bool> Tracer::enabled_{false};

const char *
spanName(Span span)
{
    return kNames[std::size_t(span)];
}

void
Tracer::setEnabled(bool enabled)
{
    enabled_.store(enabled, std::memory_order_relaxed);
}

void
Tracer::markMainThread()
{
    local().main = true;
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    for (const auto &spans : registry) {
        for (ThreadSpans::Acc &a : spans->acc) {
            a.count.store(0, std::memory_order_relaxed);
            a.total_ns.store(0, std::memory_order_relaxed);
            a.self_ns.store(0, std::memory_order_relaxed);
            a.top_ns.store(0, std::memory_order_relaxed);
        }
    }
}

std::array<SpanTotals, kSpanCount>
Tracer::merge()
{
    std::array<SpanTotals, kSpanCount> out{};
    std::lock_guard<std::mutex> lock(registry_mutex);
    for (const auto &spans : registry) {
        for (std::size_t i = 0; i < kSpanCount; ++i) {
            const ThreadSpans::Acc &a = spans->acc[i];
            out[i].count += a.count.load(std::memory_order_relaxed);
            out[i].total_s +=
                1e-9 * double(a.total_ns.load(std::memory_order_relaxed));
            out[i].self_s +=
                1e-9 * double(a.self_ns.load(std::memory_order_relaxed));
            if (spans->main)
                out[i].main_top_s +=
                    1e-9 * double(a.top_ns.load(std::memory_order_relaxed));
        }
    }
    return out;
}

Scope::Scope(Span span) : span_(span), active_(Tracer::enabled())
{
    if (!active_)
        return;
    ThreadSpans &t = local();
    if (t.depth < ThreadSpans::kMaxDepth)
        t.child_ns[std::size_t(t.depth)] = 0;
    ++t.depth;
    start_ = Clock::now();
}

Scope::~Scope()
{
    if (!active_)
        return;
    const auto ns = std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
    ThreadSpans &t = local();
    --t.depth;
    const std::uint64_t children =
        t.depth < ThreadSpans::kMaxDepth ? t.child_ns[std::size_t(t.depth)]
                                         : 0;
    ThreadSpans::Acc &a = t.acc[std::size_t(span_)];
    add(a.count, 1);
    add(a.total_ns, ns);
    add(a.self_ns, ns > children ? ns - children : 0);
    if (t.depth == 0)
        add(a.top_ns, ns);
    else if (t.depth - 1 < ThreadSpans::kMaxDepth)
        t.child_ns[std::size_t(t.depth - 1)] += ns;
}

} // namespace perfbench
