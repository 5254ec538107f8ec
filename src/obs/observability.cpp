#include "obs/observability.hpp"

namespace svk::obs {

Observability::Observability()
    : tracer_(std::make_unique<Tracer>()),
      audit_(std::make_unique<ControllerAuditLog>()),
      overload_audit_(std::make_unique<OverloadAuditLog>()) {}

Sinks Observability::sinks() {
  Sinks s;
  s.tracer = tracer_.get();
  s.audit = audit_.get();
  s.overload_audit = overload_audit_.get();
  return s;
}

}  // namespace svk::obs
