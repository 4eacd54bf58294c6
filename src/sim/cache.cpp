#include "lbmf/sim/cache.hpp"

#include <algorithm>

#include "lbmf/util/check.hpp"

namespace lbmf::sim {

const CacheLine* Cache::peek(Addr base) const noexcept {
  for (const auto& l : lines_) {
    if (l.base == base) return &l;
  }
  return nullptr;
}

CacheLine* Cache::touch(Addr base) noexcept {
  for (auto& l : lines_) {
    if (l.base == base) {
      l.lru = ++clock_;
      return &l;
    }
  }
  return nullptr;
}

std::optional<CacheLine> Cache::insert(Addr base, Mesi state, LineData data) {
  LBMF_CHECK(state != Mesi::Invalid);
  if (CacheLine* existing = touch(base)) {
    existing->state = state;
    existing->data = std::move(data);
    return std::nullopt;
  }
  std::optional<CacheLine> evicted;
  if (lines_.size() >= capacity_) {
    auto victim = std::min_element(
        lines_.begin(), lines_.end(),
        [](const CacheLine& x, const CacheLine& y) { return x.lru < y.lru; });
    evicted = std::move(*victim);
    lines_.erase(victim);
  }
  // Insert in base order: lines_ stays sorted, so canonical encodings can
  // walk it directly instead of sorting a copy per serialized state.
  const auto pos = std::lower_bound(
      lines_.begin(), lines_.end(), base,
      [](const CacheLine& l, Addr b) { return l.base < b; });
  lines_.insert(pos, CacheLine{base, state, std::move(data), ++clock_});
  return evicted;
}

void Cache::set_state(Addr base, Mesi state) noexcept {
  for (auto& l : lines_) {
    if (l.base == base) {
      l.state = state;
      return;
    }
  }
}

std::optional<CacheLine> Cache::erase(Addr base) noexcept {
  for (auto it = lines_.begin(); it != lines_.end(); ++it) {
    if (it->base == base) {
      CacheLine removed = std::move(*it);
      lines_.erase(it);
      return removed;
    }
  }
  return std::nullopt;
}

StoreEntry StoreBuffer::pop_oldest() {
  LBMF_CHECK(!entries_.empty());
  StoreEntry e = entries_.front();
  entries_.erase(entries_.begin());
  return e;
}

std::optional<Word> StoreBuffer::forwarded_value(Addr a) const noexcept {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->addr == a) return it->value;
  }
  return std::nullopt;
}

}  // namespace lbmf::sim
