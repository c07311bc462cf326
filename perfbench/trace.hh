/**
 * @file
 * Span recorder of the traced benchmark build.
 *
 * perfbench_traced links trace.cc, whose __wrap_ functions interpose
 * on the simulator's layer entry points (wrapped_symbols.txt) and
 * record spans around them; perfbench links trace_off.cc, where every
 * call below is inert. The driver only marks what to record and the
 * workload points that bracket it.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <string>

namespace perfbench::trace
{

/** Is this binary built with the layer entry points interposed? */
bool available();

/** Record spans and count calls only while on (the timed phase). */
void setRecording(bool on);

/**
 * Driver span around one simulation point. It parents the layer spans
 * inside it but takes no part in their sampling.
 */
void beginPoint(const std::string &name);
void endPoint();

/** Write every recorded span and call count to @p path. */
void writeSpans(const std::string &path);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_HH
