#include "obs/audit.hpp"

#include <cassert>
#include <cmath>
#include <utility>

namespace svk::obs {
namespace {

/// Infinity is not representable in JSON; an unconstrained myshare
/// (below-T_SF windows, exit paths) serializes as null.
JsonValue finite_or_null(double v) {
  return std::isfinite(v) ? JsonValue(v) : JsonValue(nullptr);
}

}  // namespace

JsonValue AuditWindow::to_json() const {
  JsonValue w = JsonValue::object();
  w["node"] = static_cast<std::uint64_t>(node_tid);
  w["t"] = at.to_seconds();
  w["elapsed_s"] = elapsed;
  w["total_rate"] = total_rate;
  w["budget_rate"] = budget_rate;
  w["correction"] = correction;
  w["below_t_sf"] = below_t_sf;
  w["self_overloaded"] = self_overloaded;
  if (overload_changed) w["overload_changed"] = true;
  JsonValue& rows = w["paths"];
  rows = JsonValue::array();
  for (const AuditPathRow& path : paths) {
    JsonValue row = JsonValue::object();
    row["path"] = static_cast<std::uint64_t>(path.path_index);
    row["delegable"] = path.delegable;
    if (path.overloaded) {
      row["overloaded"] = true;
      row["frozen_c_asf"] = path.frozen_c_asf;
    }
    row["msg_count"] = path.msg_count;
    row["fasf_count"] = path.fasf_count;
    row["sf_count"] = path.sf_count;
    row["myshare"] = finite_or_null(path.myshare);
    row["sf_fraction"] = path.sf_fraction;
    row["smoothed_share"] = path.smoothed_share;
    rows.push_back(std::move(row));
  }
  return w;
}

JsonValue windows_to_json(const std::vector<AuditWindow>& windows) {
  JsonValue list = JsonValue::array();
  for (const AuditWindow& window : windows) {
    list.push_back(window.to_json());
  }
  return list;
}

ControllerAuditLog::ControllerAuditLog(std::size_t max_windows)
    : max_windows_(max_windows) {
  assert(max_windows_ > 0);
}

void ControllerAuditLog::append(AuditWindow window) {
  if (windows_.size() == max_windows_) {
    windows_.pop_front();
    ++dropped_;
  }
  windows_.push_back(std::move(window));
}

std::vector<AuditWindow> ControllerAuditLog::windows_for(
    std::uint32_t node_tid) const {
  std::vector<AuditWindow> out;
  for (const AuditWindow& window : windows_) {
    if (window.node_tid == node_tid) out.push_back(window);
  }
  return out;
}

std::vector<AuditWindow> ControllerAuditLog::snapshot() const {
  return {windows_.begin(), windows_.end()};
}

}  // namespace svk::obs
