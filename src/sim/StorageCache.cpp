//===- sim/StorageCache.cpp - Storage cache with LRU / PA-LRU ---------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/StorageCache.h"

#include <cassert>

using namespace dra;

StorageCache::StorageCache(CacheConfig Config,
                           std::function<bool(unsigned)> IsDiskCold)
    : Config(Config), IsDiskCold(std::move(IsDiskCold)) {}

void StorageCache::touch(LruList::iterator It) {
  Lru.splice(Lru.begin(), Lru, It);
}

void StorageCache::evictOne() {
  assert(!Lru.empty() && "evicting from an empty cache");
  auto Victim = std::prev(Lru.end());

  if (Config.Policy == CachePolicyKind::PaLru && IsDiskCold) {
    // Power-aware pass: walk from the LRU end toward the front looking for
    // a block whose home disk is at full power; evicting it costs nothing
    // in sleep time. Fall back to plain LRU when everything is cold.
    for (auto It = std::prev(Lru.end());; --It) {
      if (!IsDiskCold(It->Disk)) {
        if (It != Victim)
          ++S.PowerAwareEvictions;
        Victim = It;
        break;
      }
      if (It == Lru.begin())
        break;
    }
  }

  Map.erase(key(Victim->Disk, Victim->Block));
  Lru.erase(Victim);
  ++S.Evictions;
}

bool StorageCache::read(unsigned Disk, uint64_t Block) {
  if (!enabled())
    return false;
  auto It = Map.find(key(Disk, Block));
  if (It != Map.end()) {
    touch(It->second);
    ++S.Hits;
    return true;
  }
  ++S.Misses;
  insert(Disk, Block);
  return false;
}

void StorageCache::insert(unsigned Disk, uint64_t Block) {
  if (Map.size() >= Config.CapacityBlocks)
    evictOne();
  Lru.push_front(Entry{Disk, Block});
  Map[key(Disk, Block)] = Lru.begin();
}

void StorageCache::write(unsigned Disk, uint64_t Block) {
  if (!enabled())
    return;
  ++S.Writes;
  auto It = Map.find(key(Disk, Block));
  if (It != Map.end())
    touch(It->second); // Refresh the cached copy (write-through).
}

bool StorageCache::accessFragment(unsigned Disk, uint64_t Offset,
                                  uint64_t Bytes, uint64_t UnitBytes,
                                  bool IsWrite) {
  if (!enabled())
    return false;
  bool AllHit = !IsWrite;
  for (uint64_t B = Offset / UnitBytes; B <= (Offset + Bytes - 1) / UnitBytes;
       ++B) {
    if (IsWrite)
      write(Disk, B);
    else if (!read(Disk, B))
      AllHit = false;
  }
  return AllHit;
}

void StorageCache::clear() {
  Lru.clear();
  Map.clear();
}
