/**
 * @file
 * The benchmark's workload interface and the outcome record every
 * iteration returns. README.md says why each workload was chosen.
 */

#ifndef PERFBENCH_WORKLOAD_HPP
#define PERFBENCH_WORKLOAD_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** What one iteration produced, for checking and for work counts. */
struct Outcome
{
    /**
     * One canonical line per item (cell, device, query, or replay
     * aggregate), printed with round-trippable precision: iterations,
     * traced runs and committed references compare these byte for byte.
     */
    std::vector<std::string> items;
    /** Operations attempted and failed (cells, devices, queries, trials). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Simulated device-seconds the iteration asked the engines for. */
    double device_s = 0.0;
    /** Per-iteration work counts, keyed by per-layer metric name. */
    std::map<std::string, double> counts;
    /** First few reasons for failed operations (diagnostics). */
    std::vector<std::string> notes;

    void fail(const std::string &why)
    {
        ++failed;
        if (notes.size() < 8)
            notes.push_back(why);
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /**
     * Build every input from @p seed; scratch files go under @p workdir.
     * Called several times per run (the median is setup_s); each call
     * replaces the previous inputs with identical ones.
     */
    virtual void setup(std::uint64_t seed, const std::string &workdir) = 0;

    /**
     * One closed-loop iteration. Traced iterations route through the
     * forwarding wrappers and record spans; their items must equal the
     * untraced ones byte for byte.
     */
    virtual Outcome run(bool traced) = 0;

    /**
     * Items the committed reference holds for the current seed. The
     * default is an untraced iteration; fleet_daylight overrides it
     * with the exact-mode run of the same spec.
     */
    virtual std::vector<std::string> referenceItems()
    {
        return run(false).items;
    }

    /**
     * Largest share of items allowed to differ from the reference:
     * 0 for the exact-mode workloads, the warm-mode budget for the fleet.
     */
    virtual double mismatchBudget() const { return 0.0; }

    /**
     * Traced-run measurements taken outside the timed iterations, in
     * counts keyed by metric name (fleet.warm_mismatch,
     * telemetry.emit_s); a failed check marks the run incorrect.
     */
    virtual Outcome tracedExtras() { return {}; }
};

std::unique_ptr<Workload> makeBakeoff();
std::unique_ptr<Workload> makeFleetDaylight();
std::unique_ptr<Workload> makeVsafeSweep();
std::unique_ptr<Workload> makeTraceReplay();

// --- Outcome helpers (outcomes.cpp) -------------------------------------

/** Shortest round-trippable decimal of @p v. */
std::string num(double v);

/** Items whose lines differ, over the longer of the two lists. */
std::size_t countMismatches(const std::vector<std::string> &a,
                            const std::vector<std::string> &b);

/** Read @p path as lines; false when it does not exist. */
bool readLines(const std::string &path, std::vector<std::string> *lines);

/** Write @p lines to @p path; fatal on I/O failure. */
void writeLines(const std::string &path,
                const std::vector<std::string> &lines);

/** 64-bit FNV-1a of @p text (digest of large exports). */
std::uint64_t fnv1a(const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HPP
