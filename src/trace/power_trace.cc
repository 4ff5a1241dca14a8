#include "power_trace.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/csv.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace react {
namespace trace {

namespace {

/** Prefix a diagnostic with its source ("path: msg" / "path:line: msg"). */
[[noreturn]] void
traceFail(const std::string &source, size_t line, const std::string &msg)
{
    std::string where = source;
    if (line > 0)
        where += ":" + std::to_string(line);
    throw TraceError(where + ": " + msg);
}

/**
 * Validate a parsed table as a power capture and build the trace:
 * >= 2 rows, every row wide enough, timestamps strictly increasing on a
 * uniform grid (dt from the first two rows, 0.1 % relative tolerance --
 * loggers quantize timestamps), power finite and non-negative.
 */
PowerTrace
traceFromTable(const CsvTable &table, const std::string &source,
               const std::string &name)
{
    if (table.rows.size() < 2)
        traceFail(source, 0,
                  "a trace needs at least 2 data rows (got " +
                      std::to_string(table.rows.size()) + ")");
    int t_col = table.columnIndex("time_s");
    int p_col = table.columnIndex("power_w");
    if (t_col < 0 || p_col < 0) {
        t_col = 0;
        p_col = 1;
    }
    const size_t width =
        static_cast<size_t>(std::max(t_col, p_col)) + 1;
    auto row_line = [&](size_t i) {
        return i < table.rowLines.size() ? table.rowLines[i] : 0;
    };
    for (size_t i = 0; i < table.rows.size(); ++i) {
        if (table.rows[i].size() < width)
            traceFail(source, row_line(i),
                      "row has " + std::to_string(table.rows[i].size()) +
                          " column(s), need " + std::to_string(width));
    }

    const double t0 = table.rows[0][static_cast<size_t>(t_col)];
    const double sample_dt =
        table.rows[1][static_cast<size_t>(t_col)] - t0;
    if (!(sample_dt > 0.0) || !std::isfinite(sample_dt))
        traceFail(source, row_line(1),
                  "timestamps must be strictly increasing (dt = " +
                      std::to_string(sample_dt) + ")");

    std::vector<double> samples;
    samples.reserve(table.rows.size());
    for (size_t i = 0; i < table.rows.size(); ++i) {
        const double t = table.rows[i][static_cast<size_t>(t_col)];
        const double expected = t0 + static_cast<double>(i) * sample_dt;
        if (!std::isfinite(t) ||
            std::abs(t - expected) > 1e-3 * sample_dt)
            traceFail(source, row_line(i),
                      "timestamp " + std::to_string(t) +
                          " breaks the uniform grid (expected " +
                          std::to_string(expected) + ")");
        const double p = table.rows[i][static_cast<size_t>(p_col)];
        if (!std::isfinite(p) || p < 0.0)
            traceFail(source, row_line(i),
                      "power sample " + std::to_string(p) +
                          " must be finite and >= 0");
        samples.push_back(p);
    }
    return PowerTrace(sample_dt, std::move(samples), name);
}

} // namespace

PowerTrace::PowerTrace(double sample_dt, std::vector<double> sample_values,
                       std::string name)
    : label(std::move(name)), dt(sample_dt), samples(std::move(sample_values))
{
    react_assert(sample_dt > 0.0, "trace sample interval must be positive");
    for (double p : this->samples)
        react_assert(p >= 0.0, "trace power samples must be >= 0");
}

double
PowerTrace::duration() const
{
    return dt * static_cast<double>(samples.size());
}

double
PowerTrace::power(double t) const
{
    if (t < 0.0 || samples.empty())
        return 0.0;
    const size_t idx = static_cast<size_t>(t / dt);
    if (idx >= samples.size())
        return 0.0;
    return samples[idx];
}

namespace {

/** Bit equality: the span sweep must reproduce power()'s exact result
 *  doubles, and value equality would conflate 0.0 with -0.0 (whose bits
 *  diverge downstream, e.g. through std::max in a converter). */
inline bool
sameBits(double a, double b)
{
    uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    return ab == bb;
}

/**
 * Cursor over the accumulated replay clock `t_1 = step_dt, t_{k+1} =
 * t_k + step_dt` (each sum rounded) that reach() advances to the first
 * step whose sample index reaches a target without visiting the steps
 * in between.
 *
 * Inside one binade [2^(e-1), 2^e) every double is a multiple of its
 * ulp u, so t_k + step_dt rounds to t_k + delta with delta = step_dt
 * rounded to a multiple of u -- the same delta for every t_k in the
 * binade, unless step_dt is a rounding tie against u (fmod(step_dt, u)
 * == u/2: round-to-even then depends on t_k's parity).  A sum that
 * lands within u/2 of the binade top 2^e rounds to 2^e itself, so in a
 * non-tie binade step k0 + j is exactly t_k0 + j*delta for every j with
 * t_k0 + j*delta <= 2^e (j*delta is then an exact multiple of u).  The
 * first step whose index reaches a sample g follows from an estimate of
 * (g*dt - t_k0) / delta, refined with the monotone index predicate.
 * Tie binades take exact single steps.
 */
class ReplayClock
{
  public:
    ReplayClock(double step_dt, double sample_dt)
        : stepDt(step_dt), sampleDt(sample_dt), t(step_dt),
          idx(indexAt(step_dt))
    {
    }

    /** power()'s sample index at the current step. */
    size_t index() const { return idx; }

    /** Advance to the first step whose index is >= @p g (staying put
     *  if the current one's already is); return its step number. */
    uint64_t
    reach(size_t g)
    {
        while (idx < g) {
            if (k >= endK && !enterStretch()) {
                singleStep();
                continue;
            }
            // Estimate the first stretch offset j whose step reaches g,
            // then walk the monotone predicate to its exact edge.
            const uint64_t lo = k - anchorK + 1, hi = endK - anchorK;
            const double est =
                (static_cast<double>(g) * sampleDt - anchorT) * invDelta;
            uint64_t j = !(est > static_cast<double>(lo)) ? lo
                : est < static_cast<double>(hi)
                    ? static_cast<uint64_t>(est)
                    : hi;
            size_t at = indexAt(stretchT(j));
            if (at >= g) {
                while (j > lo) {
                    const size_t below = indexAt(stretchT(j - 1));
                    if (below < g)
                        break;
                    --j;
                    at = below;
                }
            } else {
                // Past hi the stretch is spent; the outer loop goes on
                // from its last step.
                while (j < hi) {
                    at = indexAt(stretchT(++j));
                    if (at >= g)
                        break;
                }
            }
            t = stretchT(j);
            k = anchorK + j;
            idx = at;
        }
        return k;
    }

  private:
    size_t indexAt(double x) const
    {
        return static_cast<size_t>(x / sampleDt);
    }

    /** Time of the stretch's step anchorK + j (exact up to endK). */
    double stretchT(uint64_t j) const
    {
        return anchorT + static_cast<double>(j) * delta;
    }

    void
    singleStep()
    {
        const double next = t + stepDt;
        react_assert(next > t,
                     "span replay stalls: t + step_dt == t at t = %g "
                     "(step_dt = %g)",
                     t, stepDt);
        t = next;
        ++k;
        idx = indexAt(t);
    }

    /** Anchor a closed-form stretch at the current step; false when the
     *  next step must be a single one (tie binade, subnormal t, a
     *  stalled clock, or the binade top within one delta). */
    bool
    enterStretch()
    {
        if (t < singleUntil || !std::isnormal(t))
            return false;
        int e = 0;
        std::frexp(t, &e);                      // t in [2^(e-1), 2^e)
        const double top = std::ldexp(1.0, e);
        const double ulp = std::ldexp(1.0, e - 53);
        singleUntil = top;
        if (std::fmod(stepDt, ulp) == 0.5 * ulp)
            return false;
        delta = (t + stepDt) - t;
        if (delta == 0.0)
            return false;                       // singleStep() panics
        // top - t and delta are multiples of ulp below 2^53 ulps, so
        // this floor is exact.
        const double q = std::floor((top - t) / delta);
        if (q < 1.0)
            return false;
        invDelta = 1.0 / delta;
        anchorT = t;
        anchorK = k;
        endK = k + static_cast<uint64_t>(q);
        return true;
    }

    const double stepDt;
    const double sampleDt;
    /** Current step: number k (1-based), time t, sample index idx. */
    double t;
    uint64_t k = 1;
    size_t idx;
    /** Stretch: step anchorK + j is at anchorT + j*delta for every
     *  step up to endK. */
    double anchorT = 0.0;
    uint64_t anchorK = 0;
    uint64_t endK = 0;
    double delta = 0.0;
    double invDelta = 0.0;
    /** Single-step while t is below this (the current binade's top
     *  once its stretch, if any, is spent). */
    double singleUntil = 0.0;
};

} // namespace

void
PowerTrace::compileStepSpans(double step_dt,
                             std::vector<StepSpan> &out) const
{
    react_assert(step_dt > 0.0, "span replay timestep must be positive");
    const size_t n = samples.size();
    // At most one span per sample plus the tail: the lane engine's span
    // table is allocated once, at its final size.
    out.reserve(out.size() + n + 1);
    // The index is monotone in the step number, so sample i replays
    // from the first step with index >= i up to the first with index
    // >= i + 1 (no steps: the replay skips it).
    ReplayClock replay(step_dt, dt);
    uint64_t begin = 1;
    double current = 0.0;
    uint64_t run = 0;
    for (size_t i = replay.index(); i < n; ++i) {
        const uint64_t end = replay.reach(i + 1);
        const uint64_t steps = end - begin;
        begin = end;
        if (steps == 0)
            continue;
        const double w = samples[i];
        if (run > 0 && sameBits(w, current)) {
            run += steps;
            continue;
        }
        if (run > 0)
            out.push_back({current, run});
        current = w;
        run = steps;
    }
    if (run > 0)
        out.push_back({current, run});
    // Past the trace end power() is 0.0 forever (t only grows).
    out.push_back({0.0, StepSpan::kOpenEnded});
}

double
PowerTrace::totalEnergy() const
{
    double e = 0.0;
    for (double p : samples)
        e += p * dt;
    return e;
}

TraceStats
PowerTrace::stats() const
{
    RunningStats rs;
    for (double p : samples)
        rs.add(p);
    TraceStats out;
    out.duration = duration();
    out.meanPower = rs.mean();
    out.cv = rs.cv();
    out.totalEnergy = totalEnergy();
    out.peakPower = rs.max();
    return out;
}

double
PowerTrace::energyFractionAbove(double threshold) const
{
    const double total = totalEnergy();
    if (total <= 0.0)
        return 0.0;
    double above = 0.0;
    for (double p : samples) {
        if (p >= threshold)
            above += p * dt;
    }
    return above / total;
}

double
PowerTrace::timeFractionBelow(double threshold) const
{
    if (samples.empty())
        return 0.0;
    size_t below = 0;
    for (double p : samples) {
        if (p <= threshold)
            ++below;
    }
    return static_cast<double>(below) / static_cast<double>(samples.size());
}

void
PowerTrace::scale(double factor)
{
    react_assert(factor >= 0.0, "trace scale factor must be >= 0");
    for (double &p : samples)
        p *= factor;
}

void
PowerTrace::scaleToMeanPower(double target_mean)
{
    RunningStats rs;
    for (double p : samples)
        rs.add(p);
    const double mean = rs.mean();
    react_assert(mean > 0.0, "cannot rescale an all-zero trace");
    scale(target_mean / mean);
}

PowerTrace
PowerTrace::resampled(double new_dt) const
{
    react_assert(new_dt > 0.0, "resample interval must be positive");
    const size_t n = static_cast<size_t>(std::ceil(duration() / new_dt));
    std::vector<double> out(n, 0.0);
    for (size_t i = 0; i < n; ++i)
        out[i] = power(static_cast<double>(i) * new_dt);
    return PowerTrace(new_dt, std::move(out), label);
}

std::string
PowerTrace::toCsv() const
{
    std::ostringstream out;
    out << "time_s,power_w\n";
    out.precision(9);
    for (size_t i = 0; i < samples.size(); ++i)
        out << static_cast<double>(i) * dt << ',' << samples[i] << '\n';
    return out.str();
}

PowerTrace
PowerTrace::fromCsv(const std::string &text, const std::string &name)
{
    CsvTable table;
    std::string error;
    if (!tryParseCsv(text, &table, &error))
        traceFail("<csv>", 0, error);
    return traceFromTable(table, "<csv>", name);
}

PowerTrace
PowerTrace::fromCsvFile(const std::string &path, const std::string &name)
{
    std::ifstream in(path);
    if (!in)
        traceFail(path, 0, "cannot open trace file");
    std::stringstream buf;
    buf << in.rdbuf();
    CsvTable table;
    std::string error;
    if (!tryParseCsv(buf.str(), &table, &error))
        traceFail(path, 0, error);
    return traceFromTable(table, path, name.empty() ? path : name);
}

} // namespace trace
} // namespace react
