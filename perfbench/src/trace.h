// In-memory span tracing for the traced (--trace 1) runs.  A span marks
// one public call into a module: name, start, end, the span that caused
// it, and the request it belongs to.  Each thread records into its own
// sink, so the hot path is a vector append; the tracer keeps every span
// until the run ends, writes them out as JSON lines, and derives each
// layer's self time — the span's duration minus the part its children
// cover.  Untraced runs pass a null sink, which turns Span into a
// branch and nothing else.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord {
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent = -1;  ///< index in the same sink, -1 = root
    std::uint64_t request = 0;
};

/// One thread's spans.  Not thread-safe: exactly one thread records.
class SpanSink {
public:
    explicit SpanSink(unsigned thread) : thread_(thread) {}

    std::size_t open(const char* name, std::uint64_t request);
    void close(std::size_t index);

    /// A span whose bounds were taken elsewhere (e.g. an open-loop
    /// request timed from its due time); parent is the open span, if any.
    void record(const char* name, Clock::time_point start,
                Clock::time_point end, std::uint64_t request);

    [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
    [[nodiscard]] unsigned thread() const { return thread_; }

private:
    unsigned thread_;
    std::vector<SpanRecord> spans_;
    std::vector<std::size_t> open_;
};

/// RAII span; a null sink records nothing.
class Span {
public:
    Span(SpanSink* sink, const char* name, std::uint64_t request = 0)
        : sink_(sink), index_(sink ? sink->open(name, request) : 0) {}
    ~Span() {
        if (sink_) sink_->close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    SpanSink* sink_;
    std::size_t index_;
};

class Tracer {
public:
    Tracer();

    /// A fresh sink for the calling thread; lives as long as the tracer.
    SpanSink* sink();

    /// Self times in milliseconds, grouped by span name.  Call only
    /// after every recording thread has finished.
    [[nodiscard]] std::map<std::string, std::vector<double>> self_ms() const;

    /// Writes every span as one JSON object per line (times in
    /// microseconds since the tracer was made).  Returns false when the
    /// file cannot be written.
    bool write(const std::string& path) const;

private:
    Clock::time_point epoch_;
    std::mutex mutex_;  ///< guards sinks_ (creation only)
    std::vector<std::unique_ptr<SpanSink>> sinks_;
};

}  // namespace perfbench
