#include "trace.h"

#include <fstream>

namespace perfbench {

std::size_t SpanSink::open(const char* name, std::uint64_t request) {
    SpanRecord span;
    span.name = name;
    span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    span.request = request;
    spans_.push_back(span);
    open_.push_back(spans_.size() - 1);
    // Read the clock last so the span excludes its own bookkeeping.
    spans_.back().start = Clock::now();
    return spans_.size() - 1;
}

void SpanSink::close(std::size_t index) {
    spans_[index].end = Clock::now();
    open_.pop_back();
}

void SpanSink::record(const char* name, Clock::time_point start,
                      Clock::time_point end, std::uint64_t request) {
    SpanRecord span;
    span.name = name;
    span.start = start;
    span.end = end;
    span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    span.request = request;
    spans_.push_back(span);
}

Tracer::Tracer() : epoch_(Clock::now()) {}

SpanSink* Tracer::sink() {
    std::lock_guard<std::mutex> lock(mutex_);
    sinks_.push_back(
        std::make_unique<SpanSink>(static_cast<unsigned>(sinks_.size())));
    return sinks_.back().get();
}

std::map<std::string, std::vector<double>> Tracer::self_ms() const {
    std::map<std::string, std::vector<double>> out;
    for (const auto& sink : sinks_) {
        const std::vector<SpanRecord>& spans = sink->spans();
        std::vector<double> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i) {
            self[i] = ms_between(spans[i].start, spans[i].end);
        }
        for (const SpanRecord& span : spans) {
            if (span.parent >= 0) {
                self[static_cast<std::size_t>(span.parent)] -=
                    ms_between(span.start, span.end);
            }
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            out[spans[i].name].push_back(self[i]);
        }
    }
    return out;
}

bool Tracer::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch_).count();
    };
    for (const auto& sink : sinks_) {
        for (const SpanRecord& span : sink->spans()) {
            out << "{\"name\":\"" << span.name << "\",\"start_us\":"
                << us(span.start) << ",\"end_us\":" << us(span.end)
                << ",\"parent\":" << span.parent
                << ",\"request\":" << span.request
                << ",\"thread\":" << sink->thread() << "}\n";
        }
    }
    out.close();
    return static_cast<bool>(out);
}

}  // namespace perfbench
