#include "dialog/dialog.hpp"

#include <utility>

#include "common/hash.hpp"

namespace svk::dialog {

DialogId DialogId::make(std::string_view call_id, std::string tag1,
                        std::string tag2) {
  if (tag2 < tag1) std::swap(tag1, tag2);
  return DialogId{sip::InlineText(call_id), std::move(tag1), std::move(tag2)};
}

std::uint64_t dialog_id_hash(std::string_view call_id, std::string_view tag_a,
                             std::string_view tag_b) noexcept {
  return common::key_hash(tag_b,
                          common::key_hash(tag_a, common::key_hash(call_id)));
}

DialogProbe DialogProbe::make(std::string_view call_id, std::string_view tag1,
                              std::string_view tag2) {
  if (tag2 < tag1) std::swap(tag1, tag2);
  return DialogProbe{dialog_id_hash(call_id, tag1, tag2), call_id, tag1,
                     tag2};
}

Dialog* DialogManager::find(const DialogProbe& probe) {
  common::SlabHandle* slot =
      table_.find(probe.hash, [&](const common::SlabHandle& h) {
        return probe.matches(slab_.get(h)->id);
      });
  return slot != nullptr ? slab_.get(*slot) : nullptr;
}

void DialogManager::erase(const Dialog& dialog, common::SlabHandle slot) {
  const std::uint64_t hash =
      dialog_id_hash(dialog.id.call_id, dialog.id.tag_a, dialog.id.tag_b);
  table_.erase(hash,
               [&](const common::SlabHandle& h) { return h == slot; });
  slab_.erase(slot);
}

Dialog& DialogManager::create_early(const sip::Message& invite, SimTime now) {
  const DialogProbe probe =
      DialogProbe::make(invite.call_id(), invite.from().tag, {});
  if (Dialog* existing = find(probe)) return *existing;
  const common::SlabHandle slot = slab_.emplace();
  Dialog& dialog = *slab_.get(slot);
  dialog.id = DialogId::make(invite.call_id(), invite.from().tag, {});
  dialog.created_at = now;
  table_.insert(probe.hash, slot);
  ++created_;
  return dialog;
}

Dialog* DialogManager::confirm(const sip::Message& response_2xx) {
  const DialogProbe early =
      DialogProbe::make(response_2xx.call_id(), response_2xx.from().tag, {});
  common::SlabHandle* early_slot =
      table_.find(early.hash, [&](const common::SlabHandle& h) {
        return early.matches(slab_.get(h)->id);
      });
  if (early_slot == nullptr) {
    // Maybe already confirmed (retransmitted 2xx).
    return find(DialogProbe::make(response_2xx.call_id(),
                                  response_2xx.from().tag,
                                  response_2xx.to().tag));
  }
  // Re-key in place: the record never moves, only its table entry does.
  const common::SlabHandle slot = *early_slot;
  table_.erase(early.hash,
               [&](const common::SlabHandle& h) { return h == slot; });
  Dialog& dialog = *slab_.get(slot);
  dialog.id = DialogId::make(response_2xx.call_id(), response_2xx.from().tag,
                             response_2xx.to().tag);
  dialog.state = DialogState::kConfirmed;
  table_.insert(
      dialog_id_hash(dialog.id.call_id, dialog.id.tag_a, dialog.id.tag_b),
      slot);
  return &dialog;
}

Dialog* DialogManager::match(const sip::Message& request) {
  if (request.to().tag.empty()) return nullptr;  // not in-dialog
  Dialog* dialog = find(DialogProbe::make(request.call_id(),
                                          request.from().tag,
                                          request.to().tag));
  if (dialog == nullptr) return nullptr;
  ++dialog->transactions_seen;
  return dialog;
}

void DialogManager::terminate(const DialogProbe& probe) {
  common::SlabHandle* slot =
      table_.find(probe.hash, [&](const common::SlabHandle& h) {
        return probe.matches(slab_.get(h)->id);
      });
  if (slot == nullptr) return;
  const common::SlabHandle s = *slot;
  table_.erase(probe.hash,
               [&](const common::SlabHandle& h) { return h == s; });
  slab_.erase(s);
}

bool DialogManager::abandon_early(const sip::Message& msg) {
  const DialogProbe probe =
      DialogProbe::make(msg.call_id(), msg.from().tag, {});
  common::SlabHandle* slot =
      table_.find(probe.hash, [&](const common::SlabHandle& h) {
        return probe.matches(slab_.get(h)->id);
      });
  if (slot == nullptr || slab_.get(*slot)->state != DialogState::kEarly) {
    return false;
  }
  const common::SlabHandle s = *slot;
  table_.erase(probe.hash,
               [&](const common::SlabHandle& h) { return h == s; });
  slab_.erase(s);
  ++abandoned_;
  return true;
}

std::size_t DialogManager::expire_early(SimTime now, SimTime ttl) {
  // Slot-order sweep: the *set* removed is order-independent (every early
  // dialog past its ttl), so the walk order cannot affect behavior.
  std::size_t removed = 0;
  slab_.for_each([&](common::SlabHandle slot, Dialog& dialog) {
    if (dialog.state == DialogState::kEarly &&
        now - dialog.created_at >= ttl) {
      erase(dialog, slot);
      ++removed;
    }
  });
  expired_ += removed;
  return removed;
}

}  // namespace svk::dialog
