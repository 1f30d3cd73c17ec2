/**
 * @file
 * In-memory span log written out as Chrome trace-event JSON (load it in
 * chrome://tracing or https://ui.perfetto.dev).
 *
 * Spans are recorded by the benchmark around the calls it makes into
 * each layer; nothing inside the library is instrumented. Timestamps
 * are microseconds from the log's origin.
 */

#ifndef VIBNN_BENCH_E2E_TRACE_HH
#define VIBNN_BENCH_E2E_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "stats.hh"

namespace vibnn::bench::e2e
{

class TraceLog
{
  public:
    explicit TraceLog(std::int64_t origin_ns) : originNs_(origin_ns) {}

    /** Microseconds from the origin to a nowNs() instant. */
    double
    at(std::int64_t ns) const
    {
        return static_cast<double>(ns - originNs_) * 1e-3;
    }

    void
    processName(int pid, const std::string &name)
    {
        events_.push_back(fmt("{\"ph\": \"M\", \"name\": \"process_name\", "
                              "\"pid\": %d, \"args\": {\"name\": \"%s\"}}",
                              pid, name.c_str()));
    }

    void
    threadName(int pid, int tid, const std::string &name)
    {
        events_.push_back(fmt("{\"ph\": \"M\", \"name\": \"thread_name\", "
                              "\"pid\": %d, \"tid\": %d, "
                              "\"args\": {\"name\": \"%s\"}}",
                              pid, tid, name.c_str()));
    }

    /** A complete span; spans on one (pid, tid) must nest. `args` is a
     *  JSON object. */
    void
    span(const std::string &name, int pid, int tid, double ts_us,
         double dur_us, const std::string &args = "{}")
    {
        events_.push_back(fmt("{\"ph\": \"X\", \"name\": \"%s\", "
                              "\"pid\": %d, \"tid\": %d, \"ts\": %.3f, "
                              "\"dur\": %.3f, \"args\": %s}",
                              name.c_str(), pid, tid, ts_us, dur_us,
                              args.c_str()));
    }

    /** An async span keyed by `id`: spans sharing an id nest, and spans
     *  of different ids may overlap freely (open-loop requests). */
    void
    asyncSpan(const std::string &name, int pid, std::uint64_t id,
              double ts_us, double end_us, const std::string &args = "{}")
    {
        const auto id_str = std::to_string(id);
        events_.push_back(fmt("{\"ph\": \"b\", \"cat\": \"request\", "
                              "\"name\": \"%s\", \"id\": %s, \"pid\": %d, "
                              "\"tid\": 0, \"ts\": %.3f, \"args\": %s}",
                              name.c_str(), id_str.c_str(), pid, ts_us,
                              args.c_str()));
        events_.push_back(fmt("{\"ph\": \"e\", \"cat\": \"request\", "
                              "\"name\": \"%s\", \"id\": %s, \"pid\": %d, "
                              "\"tid\": 0, \"ts\": %.3f}",
                              name.c_str(), id_str.c_str(), pid, end_us));
    }

    /** Write {"traceEvents": [...]}; false on I/O failure. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
        for (std::size_t i = 0; i < events_.size(); ++i)
            out << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
        out << "]}\n";
        return static_cast<bool>(out);
    }

    std::size_t size() const { return events_.size(); }

  private:
    template <typename... Args>
    static std::string
    fmt(const char *format, Args... args)
    {
        const int n = std::snprintf(nullptr, 0, format, args...);
        std::string s(static_cast<std::size_t>(n), '\0');
        std::snprintf(s.data(), s.size() + 1, format, args...);
        return s;
    }

    std::int64_t originNs_;
    std::vector<std::string> events_;
};

} // namespace vibnn::bench::e2e

#endif // VIBNN_BENCH_E2E_TRACE_HH
