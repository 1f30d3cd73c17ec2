/**
 * @file
 * Shared helpers for the benchmark harnesses.
 *
 * Every bench binary regenerates one of the paper's tables or figures:
 * it prints the measured values next to the paper's reported ones, and
 * honours three environment knobs:
 *   VIBNN_SCALE      — multiplies workload sizes (default 1 = laptop
 *                      scale; each bench scales its own sample counts,
 *                      epochs or repetitions and prints the scale in
 *                      its banner),
 *   VIBNN_SEED       — master seed,
 *   VIBNN_BENCH_JSON — when set to a path, benches that support it
 *                      also emit their measurements as a JSON array of
 *                      flat records there (machine-readable, so the
 *                      perf trajectory can be tracked run-over-run).
 */

#ifndef VIBNN_BENCH_BENCH_UTIL_HH
#define VIBNN_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/table.hh"

namespace vibnn::bench
{

/** Print the standard bench banner. */
inline void
banner(const std::string &artifact, const std::string &description)
{
    std::printf("==============================================================\n");
    std::printf("VIBNN reproduction — %s\n", artifact.c_str());
    std::printf("%s\n", description.c_str());
    std::printf("scale=%.2f seed=%llu\n", envScale(),
                static_cast<unsigned long long>(envSeed()));
    std::printf("==============================================================\n");
}

/** One flat JSON record ({"key": value, ...}) under construction. */
class JsonRecord
{
  public:
    JsonRecord &
    field(const std::string &key, const std::string &value)
    {
        append(key, "\"" + escape(value) + "\"");
        return *this;
    }

    JsonRecord &
    field(const std::string &key, const char *value)
    {
        return field(key, std::string(value));
    }

    JsonRecord &
    field(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", value);
        append(key, buf);
        return *this;
    }

    JsonRecord &
    field(const std::string &key, long long value)
    {
        append(key, std::to_string(value));
        return *this;
    }

    JsonRecord &
    field(const std::string &key, std::size_t value)
    {
        append(key, std::to_string(value));
        return *this;
    }

    JsonRecord &
    field(const std::string &key, int value)
    {
        append(key, std::to_string(value));
        return *this;
    }

    std::string json() const { return "{" + body_ + "}"; }

  private:
    static std::string
    escape(const std::string &s)
    {
        std::string out;
        for (char c : s) {
            const auto u = static_cast<unsigned char>(c);
            if (c == '"' || c == '\\') {
                out.push_back('\\');
                out.push_back(c);
            } else if (u < 0x20) {
                // Control characters must be \u-escaped or parsers
                // reject the file.
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", u);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
        return out;
    }

    void
    append(const std::string &key, const std::string &rendered)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + escape(key) + "\": " + rendered;
    }

    std::string body_;
};

/**
 * Machine-readable bench output: collects flat records and, when the
 * VIBNN_BENCH_JSON environment variable names a path, writes them
 * there as a JSON array in write(). With the variable unset the
 * report is a cheap no-op, so benches call it unconditionally.
 */
class JsonReport
{
  public:
    JsonReport()
    {
        const char *path = std::getenv("VIBNN_BENCH_JSON");
        if (path && *path)
            path_ = path;
    }

    bool enabled() const { return !path_.empty(); }

    void
    add(const JsonRecord &record)
    {
        if (enabled())
            records_.push_back(record.json());
    }

    /** Write the array; returns false (with a notice) on IO failure. */
    bool
    write() const
    {
        if (!enabled())
            return true;
        std::ofstream out(path_, std::ios::trunc);
        if (!out) {
            std::printf("JSON report: cannot open %s for writing\n",
                        path_.c_str());
            return false;
        }
        out << "[\n";
        for (std::size_t i = 0; i < records_.size(); ++i)
            out << "  " << records_[i]
                << (i + 1 < records_.size() ? ",\n" : "\n");
        out << "]\n";
        std::printf("JSON report: %zu records -> %s\n", records_.size(),
                    path_.c_str());
        return static_cast<bool>(out);
    }

  private:
    std::string path_;
    std::vector<std::string> records_;
};

/** Wall-clock stopwatch. */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - start_).count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace vibnn::bench

#endif // VIBNN_BENCH_BENCH_UTIL_HH
