// The four closed-loop workloads. Each runs inside one SPMD launch of
// thread-backend ranks and records into the Round it is handed.
#include <algorithm>
#include <deque>
#include <exception>
#include <thread>

#include "apps/dht/dht.hpp"
#include "bench.hpp"
#include "gex/runtime.hpp"
#include "upcxx/upcxx.hpp"

namespace pb {

namespace {

// Stand-in for Recorder outside the timed phases (preload, warm-up,
// final verification): runs the op, records nothing.
struct NullRec {
  template <typename Init>
  auto op(Kind, bool, Init&& init) {
    return init().wait();
  }
  void add_bytes(std::size_t) {}
};

// Runs `step` in a closed loop on every rank for each timed phase, between
// barriers; records set-up end, counter deltas and closing-barrier waits.
// The clients of these workloads are the ranks themselves.
template <typename Step>
void run_rank_phases(const Options& o, Round& R, std::uint64_t budget,
                     Step&& step) {
  const int me = upcxx::rank_me();
  const Counters start = Counters::take();
  for (int i = 0; i < R.phases; ++i) {
    const int p = phase_at(o, R.index, i);
    ClientPhase& cp = R.phase[p][me];
    upcxx::barrier();
    const std::uint64_t t0 = arch::now_ns();
    if (i == 0 && me == 0) R.setup_s = (t0 - R.launch_ns) * 1e-9;
    Recorder rec(cp, t0, o, p == 1, budget);
    while (!rec.done()) step(rec);
    rec.close();
    upcxx::barrier();
    cp.barrier_wait_s = (arch::now_ns() - cp.end_ns) * 1e-9;
  }
  R.counters[me] = Counters::take().delta_from(start);
}

void record_segment(Round& R, double live_bytes) {
  const int me = upcxx::rank_me();
  auto& h = gex::arena().segment_heap(me);
  R.seg_used[me] = static_cast<double>(h.bytes_total() - h.bytes_free());
  R.live_bytes[me] = live_bytes;
}

// ------------------------------------------------------------------- dht

constexpr std::size_t kDhtLive = 1024;  // live keys held per client
constexpr std::size_t kValMin = 64, kValMax = 8 << 10;
constexpr std::size_t kTapeSpan = 1 << 16;
constexpr int kDhtWarmOps = 4000;
// Closed-loop rate per client the segment is sized for; a client that
// reaches rate x phase length stops early (ClientPhase::budget_hit).
constexpr double kDhtRateCap = 400e3;
// Segment bytes one landing zone costs on average: log-uniform
// 64 B..8 KiB values average 1675 B, plus the NUL and allocator header.
constexpr double kMeanLz = 1700;

std::uint64_t dht_budget(const Options& o) {
  return static_cast<std::uint64_t>(kDhtRateCap * phase_ns(o) * 1e-9) + 1;
}

// Overwrites leak their old landing zone (RpcRmaMap::insert replaces the
// map entry without deallocating it), so the segment is sized from the
// run's op budget: live set x 2 plus every overwrite's leak, x 1.5.
gex::Config dht_config(const Options& o) {
  gex::Config c;
  c.ranks = 4;
  c.am_transport = gex::AmTransport::kMmap;
  c.rma_wire = gex::RmaWire::kDirect;
  c.am_window = gex::kAmWindowForceAuto;
  const double ops_per_client =
      static_cast<double>(dht_budget(o)) * (o.trace ? 2 : 1) + kDhtWarmOps;
  // Keys hash uniformly over the ranks: each segment takes 1/ranks of the
  // clients' zones, i.e. one client's worth.
  const double live = 2.0 * kDhtLive * kMeanLz;
  const double leak = 0.10 * ops_per_client * kMeanLz;
  c.segment_bytes = (static_cast<std::size_t>(1.5 * (live + leak)) >> 20 << 20) +
                    (16 << 20);
  return c;
}

struct DhtEntry {
  std::string key;
  std::uint64_t vseed;  // value = value_bytes(vseed), value_len(vseed)
};

class DhtClient {
 public:
  DhtClient(const Options& o, int me)
      : me_(me),
        key_seed_(mix(o.seed, 0x6b6579u + me)),
        rng_(mix(o.seed, 0x646874u + me)),
        tape_(make_tape(mix(o.seed, 0x74617065u), kTapeSpan + kValMax)) {}

  // One op of the mix: 60% find, 30% churn, 10% overwrite.
  template <typename Rec>
  void step(dht::RpcRmaMap& m, Rec& rec, Tally& t) {
    const std::uint64_t r = rng_.below(100);
    if (r < 60) {
      find(m, rec, t, live_[rng_.below(live_.size())]);
    } else if (r < 90) {
      if (live_.size() <= kDhtLive)
        insert_fresh(m, rec, t);
      else
        erase_oldest(m, rec, t);
    } else {
      overwrite(m, rec, t, live_[rng_.below(live_.size())]);
    }
  }

  template <typename Rec>
  void insert_fresh(dht::RpcRmaMap& m, Rec& rec, Tally& t) {
    char key[24];
    std::snprintf(key, sizeof key, "%c%016llx", 'a' + me_,
                  static_cast<unsigned long long>(mix(key_seed_, ++nkeys_)));
    live_.push_back({key, rng_.next()});
    put(m, rec, t, kInsert, live_.back());
  }

  template <typename Rec>
  void verify_all(dht::RpcRmaMap& m, Rec& rec, Tally& t) {
    for (const auto& e : live_) find(m, rec, t, e);
  }

  double live_bytes() const {
    double b = 0;
    for (const auto& e : live_) b += static_cast<double>(len(e.vseed) + 1);
    return b;
  }

 private:
  std::size_t len(std::uint64_t v) const {
    Rng r(v);
    return r.log_uniform(kValMin, kValMax);
  }
  const char* bytes(std::uint64_t v) const {
    return tape_.data() + mix(v, 1) % kTapeSpan;
  }

  template <typename Rec>
  void find(dht::RpcRmaMap& m, Rec& rec, Tally& t, const DhtEntry& e) {
    const auto v = rec.op(kFind, true, [&] { return m.find(e.key); });
    const std::size_t n = len(e.vseed);
    t.check(v && v->size() == n && same_bytes(v->data(), bytes(e.vseed), n));
    rec.add_bytes(v ? v->size() : 0);
  }

  template <typename Rec>
  void put(dht::RpcRmaMap& m, Rec& rec, Tally& t, Kind k, const DhtEntry& e) {
    const std::string val(bytes(e.vseed), len(e.vseed));
    rec.op(k, true, [&] { return m.insert(e.key, val); });
    t.check(true);  // an insert returns nothing; later finds check it
    rec.add_bytes(val.size());
  }

  template <typename Rec>
  void erase_oldest(dht::RpcRmaMap& m, Rec& rec, Tally& t) {
    const bool ok =
        rec.op(kErase, true, [&] { return m.erase(live_.front().key); });
    t.check(ok);
    live_.pop_front();
  }

  template <typename Rec>
  void overwrite(dht::RpcRmaMap& m, Rec& rec, Tally& t, DhtEntry& e) {
    e.vseed = rng_.next();
    put(m, rec, t, kOverwrite, e);
  }

  int me_;
  std::uint64_t key_seed_;
  std::uint64_t nkeys_ = 0;
  Rng rng_;
  std::vector<char> tape_;
  std::deque<DhtEntry> live_;
};

void dht_body(const Options& o, Round& R) {
  const int me = upcxx::rank_me();
  Tally& t = R.tally[me];
  dht::RpcRmaMap map;
  DhtClient c(o, me);
  NullRec nr;
  for (std::size_t i = 0; i < kDhtLive; ++i) c.insert_fresh(map, nr, t);
  upcxx::barrier();
  for (int i = 0; i < kDhtWarmOps; ++i) c.step(map, nr, t);
  run_rank_phases(o, R, dht_budget(o),
                  [&](Recorder& rec) { c.step(map, rec, t); });
  c.verify_all(map, nr, t);
  upcxx::barrier();
  record_segment(R, c.live_bytes());
  upcxx::barrier();
}

// ------------------------------------------------------------ rma_am/socket

constexpr std::size_t kRegion = 4 << 20;
constexpr std::size_t kShift = 4096;
constexpr std::size_t kSmallMax = 1 << 10;
constexpr int kRmaWarmOps = 200;

gex::Config rma_config(int ranks, gex::AmTransport tr) {
  gex::Config c;
  c.ranks = ranks;
  c.am_transport = tr;
  c.rma_wire = gex::RmaWire::kAm;
  c.am_window = gex::kAmWindowForceAuto;
  return c;
}
gex::Config rma_am_config(const Options&) {
  return rma_config(3, gex::AmTransport::kMmap);
}
gex::Config rma_socket_config(const Options&) {
  return rma_config(2, gex::AmTransport::kSocket);
}

// Every rank owns one block of its segment: a get region (filled with the
// owner's image) followed by one put region per source rank. Images are
// seed-derived bytes; put payloads are cut from the source's image at a
// random shift, so every byte's expected value is known from an interval
// map of the last put covering it.
class RmaClient {
 public:
  RmaClient(const Options& o, int me, int n)
      : me_(me), n_(n), rng_(mix(o.seed, 0x726d61u + me)), buf_(kRegion) {
    for (int r = 0; r < n; ++r)
      images_.push_back(make_tape(mix(o.seed, 0x696d67u + r), kRegion + kShift));
    block_ = upcxx::allocate<char>((1 + n) * kRegion);
    std::memcpy(block_.local(), images_[me].data(), kRegion);
    upcxx::dist_object<upcxx::global_ptr<char>> dir(block_);
    for (int r = 0; r < n; ++r) peers_.push_back(dir.fetch(r).wait());
    shadow_.resize(n);
    upcxx::barrier();  // dir stays alive until every rank fetched
  }

  ~RmaClient() { upcxx::deallocate(block_); }

  // One closed-loop op: put or get, 80% small (8 B..1 KiB), 20% bulk
  // (64 KiB..4 MiB), both log-uniform, to a random other rank.
  template <typename Rec>
  void step(Rec& rec, Tally& t) {
    int target = static_cast<int>(rng_.below(n_ - 1));
    if (target >= me_) ++target;
    const bool is_put = rng_.next() & 1;
    const bool small = rng_.below(100) < 80;
    const std::size_t len = small ? rng_.log_uniform(8, kSmallMax)
                                  : rng_.log_uniform(64 << 10, kRegion);
    const std::size_t off = rng_.below(kRegion - len + 1);
    if (is_put) {
      const std::size_t shift = rng_.below(kShift);
      const char* src = images_[me_].data() + shift;
      const auto dst = put_region(target, me_) + static_cast<std::ptrdiff_t>(off);
      rec.op(kPut, small, [&] { return upcxx::rput(src, dst, len); });
      t.check(true);  // read back once the run ends
      assign(shadow_[target], off, off + len,
             static_cast<std::int64_t>(shift) - static_cast<std::int64_t>(off));
    } else {
      const auto src = peers_[target] + static_cast<std::ptrdiff_t>(off);
      rec.op(kGet, small, [&] { return upcxx::rget(src, buf_.data(), len); });
      t.check(same_bytes(buf_.data(), images_[target].data() + off, len));
    }
    rec.add_bytes(len);
  }

  // Reads back this rank's put region on every target and checks each
  // surviving interval against the put that wrote it last.
  void verify_puts(Tally& t) {
    for (int r = 0; r < n_; ++r) {
      if (shadow_[r].empty()) continue;
      upcxx::rget(put_region(r, me_), buf_.data(), kRegion).wait();
      for (const auto& [a, iv] : shadow_[r]) {
        const char* want = images_[me_].data() + (static_cast<std::int64_t>(a) + iv.base);
        if (!same_bytes(buf_.data() + a, want, iv.end - a)) ++t.failed;
      }
    }
  }

  double live_bytes() const { return static_cast<double>((1 + n_) * kRegion); }

 private:
  struct Iv {
    std::uint64_t end;
    std::int64_t base;  // expected byte at x is image[x + base]
  };
  using IvMap = std::map<std::uint64_t, Iv>;

  upcxx::global_ptr<char> put_region(int owner, int src) const {
    return peers_[owner] + static_cast<std::ptrdiff_t>((1 + src) * kRegion);
  }

  static void split(IvMap& m, std::uint64_t x) {
    auto it = m.upper_bound(x);
    if (it == m.begin()) return;
    --it;
    if (it->first < x && x < it->second.end) {
      const Iv right = it->second;
      it->second.end = x;
      m.emplace(x, right);
    }
  }
  static void assign(IvMap& m, std::uint64_t a, std::uint64_t b,
                     std::int64_t base) {
    split(m, a);
    split(m, b);
    m.erase(m.lower_bound(a), m.lower_bound(b));
    m.emplace(a, Iv{b, base});
  }

  int me_, n_;
  Rng rng_;
  std::vector<std::vector<char>> images_;
  std::vector<char> buf_;
  upcxx::global_ptr<char> block_;
  std::vector<upcxx::global_ptr<char>> peers_;
  std::vector<IvMap> shadow_;
};

void rma_body(const Options& o, Round& R) {
  const int me = upcxx::rank_me();
  Tally& t = R.tally[me];
  RmaClient c(o, me, upcxx::rank_n());
  NullRec nr;
  for (int i = 0; i < kRmaWarmOps; ++i) c.step(nr, t);
  run_rank_phases(o, R, UINT64_MAX, [&](Recorder& rec) { c.step(rec, t); });
  upcxx::barrier();  // every put acknowledged before the read-back
  c.verify_puts(t);
  record_segment(R, c.live_bytes());
  upcxx::barrier();
}

// ---------------------------------------------------------------- inject

constexpr int kInjThreads = 2;
constexpr std::size_t kInjBytes = 64;
constexpr std::size_t kInjSlots = 64;  // per thread, on rank 1
constexpr int kInjWarmGroups = 10000;
constexpr std::uint64_t kRpcSalt = 0x727063u;

gex::Config inject_config(const Options&) {
  gex::Config c;
  c.ranks = 2;
  c.am_transport = gex::AmTransport::kMmap;
  c.rma_wire = gex::RmaWire::kDirect;
  c.am_window = gex::kAmWindowForceAuto;
  return c;
}

// One injector thread's client state: three 64 B rputs into its own slots
// on rank 1 for every 8 B rpc round trip.
struct InjClient {
  Rng rng;
  upcxx::global_ptr<char> slots;
  const std::vector<char>* tape;
  std::vector<std::uint64_t> last = std::vector<std::uint64_t>(kInjSlots, 0);
  std::vector<bool> written = std::vector<bool>(kInjSlots, false);
  std::uint64_t seq = 0;

  const char* bytes(std::uint64_t v) const {
    return tape->data() + v % (tape->size() - kInjBytes);
  }

  template <typename Rec>
  void group(Rec& rec, Tally& t) {
    for (int k = 0; k < 3; ++k) {
      const std::size_t s = seq++ % kInjSlots;
      const std::uint64_t v = rng.next();
      const auto dst = slots + static_cast<std::ptrdiff_t>(s * kInjBytes);
      rec.op(kInjRput, true, [&] { return upcxx::rput(bytes(v), dst, kInjBytes); });
      t.check(true);  // read back once the run ends
      last[s] = v;
      written[s] = true;
      rec.add_bytes(kInjBytes);
    }
    const std::uint64_t x = rng.next();
    const std::uint64_t r = rec.op(kInjRpc, true, [&] {
      return upcxx::rpc(1, [](std::uint64_t a) { return mix(a, kRpcSalt); }, x);
    });
    t.check(r == mix(x, kRpcSalt));
    rec.add_bytes(sizeof r);
  }
};

std::atomic<int> g_inj_released{0};

// Rank 0: hands the master persona to a progress_thread and runs the
// injector threads, either for `warm_groups` unrecorded groups or for one
// timed phase. Rank 1 serves in a progress loop until released.
void inject_phase(const Options& o, Round& R, std::vector<InjClient>& cs,
                  const upcxx::injector* inj, int epoch, int warm_groups,
                  int p, bool first) {
  const int me = upcxx::rank_me();
  upcxx::barrier();
  if (me == 1) {
    while (g_inj_released.load(std::memory_order_acquire) <= epoch)
      upcxx::progress();
    upcxx::barrier();
    return;
  }
  const std::uint64_t t0 = arch::now_ns();
  if (first) R.setup_s = (t0 - R.launch_ns) * 1e-9;
  {
    upcxx::progress_thread pt;
    std::vector<std::thread> ts;
    for (int c = 0; c < kInjThreads; ++c)
      ts.emplace_back([&, c] {
        Tally& t = R.tally[c];
        try {
          upcxx::injection_scope scope(*inj);
          if (warm_groups > 0) {
            NullRec nr;
            for (int i = 0; i < warm_groups; ++i) cs[c].group(nr, t);
          } else {
            Recorder rec(R.phase[p][c], t0, o, p == 1, UINT64_MAX);
            while (!rec.done()) cs[c].group(rec, t);
            rec.close();
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "inject client %d: %s\n", c, e.what());
          ++t.failed;
          R.phase[p][c].end_ns = arch::now_ns();
        }
      });
    for (auto& th : ts) th.join();
    pt.stop();
  }
  if (warm_groups == 0) {
    std::uint64_t last = 0;
    for (int c = 0; c < kInjThreads; ++c)
      last = std::max(last, R.phase[p][c].end_ns);
    for (int c = 0; c < kInjThreads; ++c)
      R.phase[p][c].barrier_wait_s = (last - R.phase[p][c].end_ns) * 1e-9;
  }
  g_inj_released.store(epoch + 1, std::memory_order_release);
  upcxx::barrier();
}

void inject_body(const Options& o, Round& R) {
  const int me = upcxx::rank_me();
  if (me == 0) g_inj_released.store(0);
  upcxx::barrier();
  upcxx::global_ptr<char> slots;
  if (me == 1) {
    slots = upcxx::allocate<char>(kInjThreads * kInjSlots * kInjBytes);
    std::memset(slots.local(), 0, kInjThreads * kInjSlots * kInjBytes);
  }
  upcxx::dist_object<upcxx::global_ptr<char>> dir(slots);
  const auto peer = dir.fetch(1).wait();
  const auto tape = make_tape(mix(o.seed, 0x696e6au), 4096 + kInjBytes);
  std::vector<InjClient> cs;
  for (int c = 0; c < kInjThreads; ++c)
    cs.push_back({Rng(mix(o.seed, 0x636c69u + c)),
                  peer + static_cast<std::ptrdiff_t>(c * kInjSlots * kInjBytes),
                  &tape});
  upcxx::barrier();

  std::optional<upcxx::injector> inj;
  if (me == 0) inj.emplace();
  int epoch = 0;
  inject_phase(o, R, cs, inj ? &*inj : nullptr, epoch++, kInjWarmGroups, 0,
               false);
  const Counters start = Counters::take();
  for (int i = 0; i < R.phases; ++i)
    inject_phase(o, R, cs, inj ? &*inj : nullptr, epoch++, 0,
                 phase_at(o, R.index, i), i == 0);
  R.counters[me] = Counters::take().delta_from(start);

  if (me == 0) {
    Tally& t = R.tally[kInjThreads + me];
    std::vector<char> back(kInjThreads * kInjSlots * kInjBytes);
    upcxx::rget(peer, back.data(), back.size()).wait();
    for (int c = 0; c < kInjThreads; ++c)
      for (std::size_t s = 0; s < kInjSlots; ++s)
        if (cs[c].written[s] &&
            !same_bytes(back.data() + (c * kInjSlots + s) * kInjBytes,
                        cs[c].bytes(cs[c].last[s]), kInjBytes))
          ++t.failed;
  }
  upcxx::barrier();
  record_segment(R, me == 1 ? kInjThreads * kInjSlots * kInjBytes : 0);
  upcxx::barrier();
  if (me == 1) upcxx::deallocate(slots);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"dht", 4, 4, 2'000'000, dht_config, dht_body},
      {"rma_am", 3, 3, 10'000'000, rma_am_config, rma_body},
      {"rma_socket", 2, 2, 20'000'000, rma_socket_config, rma_body},
      {"inject", 2, kInjThreads, 2'000'000, inject_config, inject_body},
  };
  return w;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

}  // namespace pb
