//===- service/PlanCache.cpp ----------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "service/PlanCache.h"
#include "core/ScheduleIO.h"

using namespace cmcc;

PlanCache::PlanCache(const MachineConfig &Config, Options Opts)
    : Config(Config), Opts(Opts),
      Disk({.Dir = Opts.DiskDir,
            .Ext = "cmccode",
            .Format = "cmcc-cached-plan v1",
            .ReadFaultSite = "plancache.disk_read",
            .WriteFaultSite = "plancache.disk_write"}) {
  int ShardCount = std::max(1, this->Opts.Shards);
  if (this->Opts.Capacity < static_cast<size_t>(ShardCount))
    this->Opts.Capacity = static_cast<size_t>(ShardCount);
  PerShardCapacity =
      (this->Opts.Capacity + ShardCount - 1) / static_cast<size_t>(ShardCount);
  Shards.reserve(ShardCount);
  for (int I = 0; I != ShardCount; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

std::shared_ptr<const CompiledStencil>
PlanCache::lookup(uint64_t Fingerprint) {
  if (std::shared_ptr<const CompiledStencil> Plan = peek(Fingerprint)) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    return Plan;
  }
  // Load outside the shard lock: parsing + re-verifying is the slow
  // path and must not serialize other fingerprints of this stripe. The
  // parser revalidates everything the envelope cannot — format, counts,
  // and the full schedule verifier against this machine's pipeline
  // model.
  std::shared_ptr<const CompiledStencil> Plan;
  auto Accept = [&](const std::string &Text) {
    Expected<CompiledStencil> Loaded = parseCompiledStencil(Text, Config);
    if (!Loaded)
      return false;
    Plan = std::make_shared<const CompiledStencil>(Loaded.takeValue());
    return true;
  };
  if (Disk.load(Fingerprint, {}, Accept) == DiskStore::Outcome::Hit) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    insertMemory(Fingerprint, Plan); // The record is already on disk.
    return Plan;
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

std::shared_ptr<const CompiledStencil> PlanCache::peek(uint64_t Fingerprint) {
  Shard &S = shardFor(Fingerprint);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Index.find(Fingerprint);
  if (It == S.Index.end())
    return nullptr;
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  return It->second->second;
}

bool PlanCache::insertMemory(uint64_t Fingerprint,
                             std::shared_ptr<const CompiledStencil> Plan) {
  Shard &S = shardFor(Fingerprint);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Index.find(Fingerprint);
  if (It != S.Index.end()) {
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    return false;
  }
  S.Lru.emplace_front(Fingerprint, std::move(Plan));
  S.Index[Fingerprint] = S.Lru.begin();
  Insertions.fetch_add(1, std::memory_order_relaxed);
  while (S.Lru.size() > PerShardCapacity) {
    S.Index.erase(S.Lru.back().first);
    S.Lru.pop_back();
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void PlanCache::insert(uint64_t Fingerprint,
                       std::shared_ptr<const CompiledStencil> Plan) {
  if (!Plan)
    return;
  // Write through outside the shard lock. Best-effort: a lost write only
  // forgoes future disk hits.
  if (insertMemory(Fingerprint, Plan) && Disk.enabled())
    Disk.store(Fingerprint, {}, writeCompiledStencil(*Plan, Config));
}

void PlanCache::clearMemory() {
  for (std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    S->Lru.clear();
    S->Index.clear();
  }
}

PlanCache::Counters PlanCache::counters() const {
  Counters C;
  C.Hits = Hits.load(std::memory_order_relaxed);
  C.Misses = Misses.load(std::memory_order_relaxed);
  C.Evictions = Evictions.load(std::memory_order_relaxed);
  C.Insertions = Insertions.load(std::memory_order_relaxed);
  DiskStore::Counters D = Disk.counters();
  C.DiskHits = D.Hits;
  C.DiskRejects = D.Rejects;
  C.DiskWrites = D.Writes;
  return C;
}

size_t PlanCache::size() const {
  size_t N = 0;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    N += S->Lru.size();
  }
  return N;
}
