/**
 * @file
 * Chrome trace_event JSON exporter.
 *
 * Emits the JSON-object form of the trace_event format understood by
 * chrome://tracing and Perfetto: complete ("X") slices with
 * microsecond timestamps plus metadata ("M") records naming
 * processes and threads. Two producers use it:
 *
 *  - the sweep engine renders a batch timeline (one track per worker
 *    thread, one slice per machine-free prefix and one per
 *    experiment cell), and
 *  - the utilization report renders schedule/pipeline diagrams (one
 *    track per issue slot, one slice per operation, 1 cycle = 1 us).
 *
 * The writer is thread-safe so sweep workers can append slices
 * concurrently; slices are sorted by timestamp on export, keeping
 * the output independent of the interleaving.
 */

#ifndef VVSP_OBS_TRACE_HH
#define VVSP_OBS_TRACE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vvsp
{
namespace obs
{

/** Accumulates trace events; exports trace_event JSON. */
class TraceWriter
{
  public:
    /**
     * Append a complete ("X") slice. `args` are extra key/value
     * strings shown in the Perfetto detail pane.
     */
    void slice(const std::string &name, const std::string &category,
               uint64_t ts_us, uint64_t dur_us, int pid, int tid,
               std::vector<std::pair<std::string, std::string>>
                   args = {});

    /** Name a process track (metadata event). */
    void processName(int pid, const std::string &name);

    /** Name a thread track within a process (metadata event). */
    void threadName(int pid, int tid, const std::string &name);

    /**
     * Append every record of `other` with its process ids shifted by
     * `pid_offset`: merges traces that independent tasks recorded
     * from pid 0, in the order the caller appends them.
     */
    void append(const TraceWriter &other, int pid_offset);

    /** Number of slices recorded so far (metadata excluded). */
    size_t sliceCount() const;

    /** The complete trace as a JSON object string. */
    std::string json() const;

    /**
     * Write the JSON to a file. Returns false (with a warn) when the
     * file cannot be written.
     */
    bool write(const std::string &path) const;

  private:
    struct Event
    {
        std::string name;
        std::string category;
        uint64_t tsUs = 0;
        uint64_t durUs = 0;
        int pid = 0;
        int tid = 0;
        std::vector<std::pair<std::string, std::string>> args;
    };

    struct Metadata
    {
        std::string kind; ///< "process_name" or "thread_name".
        int pid = 0;
        int tid = 0;
        std::string name;
    };

    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::vector<Metadata> metadata_;
};

} // namespace obs
} // namespace vvsp

#endif // VVSP_OBS_TRACE_HH
