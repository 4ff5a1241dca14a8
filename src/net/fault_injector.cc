#include "fault_injector.hh"

#include <cstdlib>

namespace react {
namespace net {

bool
FaultPlan::fromSpec(const std::string &spec, FaultPlan *out,
                    std::string *error)
{
    FaultPlan plan;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const size_t eq = item.find('=');
        if (eq == std::string::npos) {
            if (error)
                *error = "expected key=value, got '" + item + "'";
            return false;
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        char *end = nullptr;
        const double num = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0') {
            if (error)
                *error = "unparsable value '" + value + "' for '" + key +
                    "'";
            return false;
        }
        const bool is_rate = key == "drop" || key == "corrupt" ||
            key == "delay" || key == "partial";
        if (is_rate && (num < 0.0 || num > 1.0)) {
            if (error)
                *error = "rate '" + key + "' must be in [0, 1]";
            return false;
        }
        if (key == "drop") {
            plan.dropRate = num;
        } else if (key == "corrupt") {
            plan.corruptRate = num;
        } else if (key == "delay") {
            plan.delayRate = num;
        } else if (key == "partial") {
            plan.partialRate = num;
        } else if (key == "delayms") {
            if (num < 0.0) {
                if (error)
                    *error = "delayms must be non-negative";
                return false;
            }
            plan.delayMs = num;
        } else if (key == "seed") {
            if (num < 0.0) {
                if (error)
                    *error = "seed must be non-negative";
                return false;
            }
            plan.seed = static_cast<uint64_t>(num);
        } else {
            if (error)
                *error = "unknown fault key '" + key + "'";
            return false;
        }
    }
    *out = plan;
    return true;
}

FaultInjector::FaultInjector(const FaultPlan &plan_in)
    : plan(plan_in), rng(plan_in.seed)
{
}

FaultAction
FaultInjector::nextAction()
{
    if (!plan.enabled()) {
        ++stats.delivered;
        return FaultAction::Deliver;
    }
    // One uniform draw per frame, partitioned by cumulative rate, so
    // the schedule depends only on (seed, frame ordinal) -- not on
    // which fault classes are enabled relative to each other.
    const double u = rng.uniform();
    double edge = plan.dropRate;
    if (u < edge) {
        ++stats.dropped;
        return FaultAction::Drop;
    }
    edge += plan.corruptRate;
    if (u < edge) {
        ++stats.corrupted;
        return FaultAction::Corrupt;
    }
    edge += plan.delayRate;
    if (u < edge) {
        ++stats.delayed;
        return FaultAction::Delay;
    }
    edge += plan.partialRate;
    if (u < edge) {
        ++stats.partialWrites;
        return FaultAction::PartialWrite;
    }
    ++stats.delivered;
    return FaultAction::Deliver;
}

void
FaultInjector::corruptInPlace(std::vector<uint8_t> *frame)
{
    if (frame->empty())
        return;
    const size_t byte = static_cast<size_t>(rng.uniformInt(
        0, static_cast<int>(frame->size()) - 1));
    const int bit = rng.uniformInt(0, 7);
    (*frame)[byte] ^= static_cast<uint8_t>(1u << bit);
}

size_t
FaultInjector::partialLength(size_t full)
{
    if (full <= 1)
        return 0;
    return static_cast<size_t>(
        rng.uniformInt(1, static_cast<int>(full) - 1));
}

} // namespace net
} // namespace react
