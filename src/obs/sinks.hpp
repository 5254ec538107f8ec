// Observability sink handles.
//
// A Sinks struct is a bundle of non-owning pointers to the observability
// backends: the event tracer and the controller audit log. The simulator
// owns one Sinks value; every component that can reach the simulator — or
// that is handed a pointer to the simulator's struct — reads its sinks
// through it. All pointers default to null: with observability
// disabled every instrumentation site reduces to a null check, and the
// simulated results are bit-identical to a build without any
// instrumentation at all (asserted by ObsDeterminismTest). Event counts are
// not a sink: they live in the components' stats structs, always on (see
// common/stat_table.hpp).
#pragma once

namespace svk::obs {

class Tracer;
class ControllerAuditLog;

struct Sinks {
  Tracer* tracer = nullptr;
  ControllerAuditLog* audit = nullptr;
};

}  // namespace svk::obs
