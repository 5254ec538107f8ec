#include "obs/observability.hpp"

namespace svk::obs {

Observability::Observability()
    : tracer_(std::make_unique<Tracer>()),
      audit_(std::make_unique<ControllerAuditLog>()) {}

Sinks Observability::sinks() {
  Sinks s;
  s.tracer = tracer_.get();
  s.audit = audit_.get();
  return s;
}

}  // namespace svk::obs
