// Observability — the owning bundle behind a Sinks handle.
//
// One Observability instance per observed run: it owns the tracer and the
// controller audit log, and hands out a Sinks value pointing at
// them. The TestBed installs the sinks on its simulator; everything
// downstream records through them without knowing who owns what.
#pragma once

#include <memory>

#include "obs/audit.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"

namespace svk::obs {

class Observability {
 public:
  Observability();

  /// Handles to the backends.
  [[nodiscard]] Sinks sinks();

  [[nodiscard]] Tracer* tracer() { return tracer_.get(); }
  [[nodiscard]] ControllerAuditLog* audit() { return audit_.get(); }

 private:
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<ControllerAuditLog> audit_;
};

}  // namespace svk::obs
