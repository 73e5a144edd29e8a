#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "support/json.hh"
#include "support/logging.hh"

namespace vvsp
{
namespace obs
{

void
TraceWriter::slice(const std::string &name,
                   const std::string &category, uint64_t ts_us,
                   uint64_t dur_us, int pid, int tid,
                   std::vector<std::pair<std::string, std::string>>
                       args)
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(Event{name, category, ts_us, dur_us, pid, tid,
                            std::move(args)});
}

void
TraceWriter::processName(int pid, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    metadata_.push_back(Metadata{"process_name", pid, 0, name});
}

void
TraceWriter::threadName(int pid, int tid, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    metadata_.push_back(Metadata{"thread_name", pid, tid, name});
}

void
TraceWriter::append(const TraceWriter &other, int pid_offset)
{
    vvsp_assert(&other != this, "trace appended to itself");
    std::scoped_lock lock(mutex_, other.mutex_);
    for (Event e : other.events_) {
        e.pid += pid_offset;
        events_.push_back(std::move(e));
    }
    for (Metadata m : other.metadata_) {
        m.pid += pid_offset;
        metadata_.push_back(std::move(m));
    }
}

size_t
TraceWriter::sliceCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::string
TraceWriter::json() const
{
    std::vector<Event> events;
    std::vector<Metadata> metadata;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events = events_;
        metadata = metadata_;
    }
    // Timestamp order keeps the file independent of which worker
    // appended first (determinism for tests and diffs).
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         if (a.tsUs != b.tsUs)
                             return a.tsUs < b.tsUs;
                         if (a.pid != b.pid)
                             return a.pid < b.pid;
                         return a.tid < b.tid;
                     });

    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    for (const auto &m : metadata) {
        os << (first ? "" : ",\n");
        os << "{\"name\": \"" << m.kind << "\", \"ph\": \"M\", "
           << "\"pid\": " << m.pid << ", \"tid\": " << m.tid
           << ", \"args\": {\"name\": \"";
        os << json::escape(m.name);
        os << "\"}}";
        first = false;
    }
    for (const auto &e : events) {
        os << (first ? "" : ",\n");
        os << "{\"name\": \"";
        os << json::escape(e.name);
        os << "\", \"cat\": \"";
        os << json::escape(e.category);
        os << "\", \"ph\": \"X\", \"ts\": " << e.tsUs
           << ", \"dur\": " << e.durUs << ", \"pid\": " << e.pid
           << ", \"tid\": " << e.tid;
        if (!e.args.empty()) {
            os << ", \"args\": {";
            bool first_arg = true;
            for (const auto &[k, v] : e.args) {
                os << (first_arg ? "" : ", ") << "\"";
                os << json::escape(k);
                os << "\": \"";
                os << json::escape(v);
                os << "\"";
                first_arg = false;
            }
            os << "}";
        }
        os << "}";
        first = false;
    }
    os << "\n]}\n";
    return os.str();
}

bool
TraceWriter::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write trace file '%s'", path.c_str());
        return false;
    }
    std::string body = json();
    size_t written = std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    if (written != body.size()) {
        warn("short write to trace file '%s'", path.c_str());
        return false;
    }
    return true;
}

} // namespace obs
} // namespace vvsp
