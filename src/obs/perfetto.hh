/**
 * @file
 * Chrome-trace-event (Perfetto-compatible) JSON export.
 *
 * Events accumulate in memory and are serialized as one
 * `{"traceEvents":[...]}` document that loads directly in
 * https://ui.perfetto.dev (or chrome://tracing). Tracks are modelled
 * as threads of one process: fixed tracks for runs, epochs, kernel
 * spans, DMA transfers and sampled causal requests. Timestamps are
 * simulated microseconds.
 */

#ifndef NVSIM_OBS_PERFETTO_HH
#define NVSIM_OBS_PERFETTO_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace nvsim::obs
{

/** Well-known tracks (thread ids in the exported trace). */
enum class Track : std::uint32_t {
    Runs = 0,     //!< one span per attached benchmark run
    Epochs = 1,   //!< one span per timing epoch
    Kernels = 2,  //!< workload-level spans (runKernel, DNN nodes)
    Dma = 3,      //!< DMA engine transfers
    CausalDemand = 4,   //!< sampled demand-request spans (obs/causal)
    CausalDevices = 5,  //!< induced device-access spans (obs/causal)
};

/** In-memory collector for Chrome trace events. */
class PerfettoTracer
{
  public:
    /**
     * Event cap: an event beyond this is counted as dropped
     * instead of stored, bounding memory on pathological runs.
     */
    static constexpr std::size_t kMaxEvents = 1u << 20;

    /** Complete span ("X"): [t0_s, t1_s] simulated seconds. */
    void span(Track track, const std::string &name, double t0_s,
              double t1_s,
              std::vector<std::pair<std::string, double>> args = {});

    /** Counter sample ("C"): one series named @p name. */
    void counter(const std::string &name, double t_s, double value);

    /**
     * Flow-event point: @p phase is 's' (start), 't' (step) or 'f'
     * (end). Points sharing an @p id form one flow; each point binds
     * to the slice enclosing its timestamp on @p track, drawing
     * arrows between the bound slices in the Perfetto UI.
     */
    void flow(char phase, Track track, const std::string &name,
              double t_s, std::uint64_t id);

    /** Name the track shown in the UI (emitted as metadata). */
    void nameTrack(Track track, const std::string &name);

    /**
     * Attach a pre-rendered JSON object emitted as the document's
     * top-level "metadata" value (the run provenance manifest;
     * Perfetto surfaces it in the trace-info view). Empty = omitted.
     */
    void setMetadataJson(std::string raw_json)
    {
        metadataJson_ = std::move(raw_json);
    }

    /**
     * Shift all subsequently recorded timestamps by @p seconds —
     * used to lay several runs (each starting at simulated t=0) end
     * to end on one timeline.
     */
    void setTimeBase(double seconds) { timeBase_ = seconds; }
    double timeBase() const { return timeBase_; }

    /** Largest shifted end-timestamp recorded so far (seconds). */
    double horizon() const { return horizon_; }

    std::size_t events() const { return events_.size(); }
    std::size_t dropped() const { return dropped_; }

    /** Serialize the full document. */
    void writeJson(std::ostream &out) const;

  private:
    struct Event
    {
        char phase;  //!< 'X', 'C', 's', 't', 'f'
        std::uint32_t tid;
        std::string name;
        double ts_us;
        double dur_us;  //!< 'X' only
        std::vector<std::pair<std::string, double>> args;
        std::uint64_t flowId = 0;  //!< 's'/'t'/'f' only
    };

    bool admit();
    void note(double t_s);

    std::vector<Event> events_;
    std::vector<std::pair<std::uint32_t, std::string>> trackNames_;
    std::string metadataJson_;
    std::size_t dropped_ = 0;
    double timeBase_ = 0;
    double horizon_ = 0;
};

} // namespace nvsim::obs

#endif // NVSIM_OBS_PERFETTO_HH
