// Untraced build: nothing is interposed, so nothing is recorded.

#include "trace.hh"

namespace perfbench::trace
{

bool available() { return false; }
void setRecording(bool) {}
void beginPoint(const std::string &) {}
void endPoint() {}
void writeSpans(const std::string &) {}

} // namespace perfbench::trace
