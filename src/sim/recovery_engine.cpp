#include "sim/recovery_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/contracts.hpp"
#include "edge/resource_ledger.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::sim {

const char* to_string(RecoveryPolicy policy) {
    switch (policy) {
        case RecoveryPolicy::kNone: return "none";
        case RecoveryPolicy::kLocalRespawn: return "local-respawn";
        case RecoveryPolicy::kRemoteMigrate: return "remote-migrate";
        case RecoveryPolicy::kReadmit: return "readmit";
    }
    throw std::invalid_argument("to_string: unknown RecoveryPolicy");
}

namespace {

constexpr double kAvailSlack = 1e-12;
/// The wake-up slot of a request with no recovery visit pending.
constexpr TimeSlot kNever = std::numeric_limits<TimeSlot>::max();

struct ReplicaState {
    bool alive{false};
    TimeSlot ready_at{0};        ///< serving only from this slot on
    TimeSlot reserved_from{0};   ///< start of the live ledger reservation
    TimeSlot reserved_until{0};  ///< end of the live ledger reservation
    /// Serving only while t < expires_at. A re-admission hands service over:
    /// old replicas expire exactly when the new placement becomes ready.
    TimeSlot expires_at{0};
    int retries{0};
    TimeSlot next_attempt{0};    ///< respawn backoff gate
    TimeSlot down_until{0};      ///< unreachable (instance outage) before this slot
};

/// Where a request is served from in one slot; site < 0 when it is not.
struct ServingReplica {
    std::ptrdiff_t site{-1};
    std::size_t replica{0};
    friend bool operator==(const ServingReplica&, const ServingReplica&) = default;
};

/// One site of a placement: a cloudlet and a contiguous run of the replica
/// arena.
struct SiteState {
    CloudletId cloudlet;
    std::size_t first_replica{0};
    std::size_t replica_count{0};
};

struct RequestState {
    /// The request's sites, in scan order: a contiguous run of the site
    /// arena.
    std::size_t first_site{0};
    std::size_t site_count{0};
    bool shed{false};
    /// Live availability meets R_i (kept under kRemoteMigrate and
    /// kReadmit only), and the latest expiry among the live replicas, where
    /// the request's committed service ends. Both are refreshed wherever a
    /// replica's alive bit flips or a site is added.
    bool meets{true};
    TimeSlot serve_until{0};
    int recover_retries{0};  ///< migrate/readmit attempts (per request)
    TimeSlot next_recover_attempt{0};
    /// The slot of the request's next recovery visit (kNever: none due). A
    /// queued wake-up for any other slot is stale.
    TimeSlot wake_at{kNever};
    std::size_t window_slots{0};
    std::size_t served{0};
    bool accounted{false};      ///< at least one slot accounted
    bool was_serving{false};
    TimeSlot disruption_start{-1};
    ServingReplica last{};
    CloudletId last_cloudlet{};
};

/// A queued wake-up: something about `request` is due at `slot`.
struct Wake {
    TimeSlot slot{0};
    std::size_t request{0};
};

/// Slots [lo, hi) of one live replica that shedding its request would free,
/// `compute` units each.
struct FreedSpan {
    TimeSlot lo{0};
    TimeSlot hi{0};
    double compute{0};
};

/// A shedding candidate and its run [first_span, end_span) of freed spans.
struct Victim {
    std::size_t request{0};
    std::size_t first_span{0};
    std::size_t end_span{0};
};

/// Orders a std::*_heap of wake-ups earliest first.
[[nodiscard]] bool later(const Wake& a, const Wake& b) { return a.slot > b.slot; }

void push_wake(std::vector<Wake>& heap, TimeSlot slot, std::size_t request) {
    heap.push_back(Wake{slot, request});
    std::push_heap(heap.begin(), heap.end(), later);
}

/// One entry of a cloudlet's holder list: a request and what the shedding
/// scan reads of it before touching its state.
struct Holder {
    double payment{0};
    TimeSlot arrival{0};
    TimeSlot end{0};
    std::size_t request{0};
};

/// The shedding scan's victim order: payment ascending, then request index.
[[nodiscard]] bool sheds_before(const Holder& a, const Holder& b) {
    // vnfr-lint: allow(float-eq) exact tie-break for a deterministic order
    if (a.payment != b.payment) return a.payment < b.payment;
    return a.request < b.request;
}

/// Lists request `i` among one cloudlet's holders, keeping the list in
/// victim order; a request already listed is not listed twice.
void list_holder(const core::Instance& instance, std::vector<Holder>& holders,
                 std::size_t i) {
    const workload::Request& req = instance.requests[i];
    const Holder holder{req.payment, req.arrival, req.end(), i};
    const auto at = std::lower_bound(holders.begin(), holders.end(), holder, sheds_before);
    if (at == holders.end() || at->request != i) holders.insert(at, holder);
}

/// Analytic availability of request `i`'s live placement: per site
/// r(c_j)(1 - (1 - r(f_i))^{alive_j}) combined across sites by Eq. 10.
/// Pending respawns count — they are already paid for and on the way, so
/// they must not re-trigger recovery every slot of their spin-up.
/// Deliberately not core::placement_availability: it counts live replicas
/// only and multiplies failure probabilities directly rather than summing
/// their logs, so sharing that function would change the recovery reports'
/// bits.
[[nodiscard]] double live_availability(const core::Instance& instance, std::size_t i,
                                       std::span<const SiteState> sites,
                                       const std::vector<ReplicaState>& replicas) {
    const double vnf_rel = instance.catalog.reliability(instance.requests[i].vnf);
    double fail = 1.0;
    for (const SiteState& site : sites) {
        int alive = 0;
        for (std::size_t k = 0; k < site.replica_count; ++k) {
            if (replicas[site.first_replica + k].alive) ++alive;
        }
        if (alive == 0) continue;
        const double rel = instance.network.cloudlet(site.cloudlet).reliability;
        fail *= 1.0 - vnf::onsite_availability(rel, vnf_rel, alive);
    }
    return VNFR_CHECK_PROB(1.0 - fail);
}

/// Per-slot lists of request indices in one flat array: slot t's list is
/// items[first[t], first[t + 1]).
struct SlotLists {
    std::vector<std::size_t> first;
    std::vector<std::size_t> items;

    [[nodiscard]] std::span<const std::size_t> at(TimeSlot t) const {
        const auto slot = static_cast<std::size_t>(t);
        return {items.data() + first[slot], first[slot + 1] - first[slot]};
    }
};

using SlotSpan = std::pair<TimeSlot, TimeSlot>;

/// A request's window [a_i, a_i + d_i), and its last slot alone.
[[nodiscard]] SlotSpan window_of(const workload::Request& r) { return {r.arrival, r.end()}; }
[[nodiscard]] SlotSpan last_slot_of(const workload::Request& r) { return {r.end() - 1, r.end()}; }

/// Lists every admitted request i under each slot of span(i) = [lo, hi), in
/// index order: one counting pass, prefix sums, then a placement pass.
[[nodiscard]] SlotLists list_by_slot(const core::Instance& instance,
                                     const std::vector<core::Decision>& decisions,
                                     SlotSpan (*span)(const workload::Request&)) {
    SlotLists lists;
    lists.first.assign(static_cast<std::size_t>(instance.horizon) + 1, 0);
    for (std::size_t i = 0; i < decisions.size(); ++i) {
        if (!decisions[i].admitted) continue;
        const auto [lo, hi] = span(instance.requests[i]);
        for (TimeSlot s = lo; s < hi; ++s) ++lists.first[static_cast<std::size_t>(s) + 1];
    }
    for (std::size_t s = 1; s < lists.first.size(); ++s) lists.first[s] += lists.first[s - 1];
    lists.items.resize(lists.first.back());
    std::vector<std::size_t> next(lists.first.begin(), lists.first.end() - 1);
    for (std::size_t i = 0; i < decisions.size(); ++i) {
        if (!decisions[i].admitted) continue;
        const auto [lo, hi] = span(instance.requests[i]);
        for (TimeSlot s = lo; s < hi; ++s) lists.items[next[static_cast<std::size_t>(s)]++] = i;
    }
    return lists;
}

[[nodiscard]] bool uses_deficits(RecoveryPolicy policy) {
    return policy == RecoveryPolicy::kRemoteMigrate || policy == RecoveryPolicy::kReadmit;
}

}  // namespace

/// The state every replay of a study starts from, and what no replay
/// changes.
struct RecoveryReplay::Base {
    Base(const core::Instance& inst, const std::vector<core::Decision>& decs,
         const RecoveryConfig& cfg)
        : instance(inst),
          decisions(decs),
          config(cfg),
          ledger(inst.network.capacities(), inst.horizon, edge::CapacityPolicy::kEnforce),
          states(decs.size()),
          compute(decs.size(), 0.0),
          holders(inst.network.cloudlet_count()),
          covering(list_by_slot(inst, decs, window_of)),
          ending(list_by_slot(inst, decs, last_slot_of)) {
        VNFR_CHECK(config.max_retries >= 0, "max_retries must be >= 0");
        VNFR_CHECK(config.respawn_delay_slots >= 0, "respawn_delay_slots must be >= 0");
        VNFR_CHECK(config.retry_backoff_slots >= 1, "retry_backoff_slots must be >= 1");
        const std::span<const edge::Cloudlet> cloudlets = inst.network.cloudlets();
        if (config.policy == RecoveryPolicy::kReadmit)
            onsite_replicas.assign(decs.size() * cloudlets.size(), 0);
        for (std::size_t i = 0; i < decs.size(); ++i) {
            if (!decs[i].admitted) continue;
            const workload::Request& req = inst.requests[i];
            compute[i] = inst.catalog.compute_units(req.vnf);
            RequestState& state = states[i];
            const std::size_t first_replica = replicas.size();
            state.first_site = sites.size();
            state.site_count = decs[i].placement.sites.size();
            for (const core::Site& site : decs[i].placement.sites) {
                sites.push_back(SiteState{site.cloudlet, replicas.size(),
                                          static_cast<std::size_t>(std::max(0, site.replicas))});
                for (int k = 0; k < site.replicas; ++k) {
                    if (!ledger.reserve(site.cloudlet, req.arrival, req.end(), compute[i]))
                        throw ScheduleNotReplayable(
                            "run_recovery_study: schedule violates cloudlet capacity "
                            "(pure Algorithm 1 schedules are not replayable)");
                    ReplicaState r;
                    r.alive = true;
                    r.ready_at = req.arrival;
                    r.reserved_from = req.arrival;
                    r.reserved_until = req.end();
                    r.expires_at = req.end();
                    replicas.push_back(r);
                }
                list_holder(inst, holders[site.cloudlet.index()], i);
            }
            if (replicas.size() > first_replica) state.serve_until = req.end();
            if (config.policy == RecoveryPolicy::kReadmit) {
                const vnf::ReplicaRow& row = inst.catalog.replica_row(req.vnf);
                for (std::size_t j = 0; j < cloudlets.size(); ++j) {
                    onsite_replicas[i * cloudlets.size() + j] =
                        vnf::onsite_replicas(row, cloudlets[j].reliability, req.requirement)
                            .value_or(0);
                }
            }
            // A placement that already falls short of R_i is due for
            // recovery from its first slot.
            if (uses_deficits(config.policy)) {
                const std::span<const SiteState> placed(sites.data() + state.first_site,
                                                        state.site_count);
                state.meets = live_availability(inst, i, placed, replicas) + kAvailSlack >=
                              req.requirement;
                if (!state.meets) {
                    state.wake_at = req.arrival;
                    push_wake(wakes, req.arrival, i);
                }
            }
        }
        for (std::size_t j = 0; j < inst.network.cloudlet_count(); ++j) {
            zero_dual_order.push_back(CloudletId{static_cast<std::int64_t>(j)});
        }
        std::sort(zero_dual_order.begin(), zero_dual_order.end(),
                  [&](CloudletId a, CloudletId b) {
                      const double ra = inst.network.cloudlet(a).reliability;
                      const double rb = inst.network.cloudlet(b).reliability;
                      // vnfr-lint: allow(float-eq) exact tie-break for a deterministic order
                      if (ra != rb) return ra > rb;
                      return a < b;
                  });
    }

    const core::Instance& instance;
    const std::vector<core::Decision>& decisions;
    RecoveryConfig config;
    /// Every admitted decision's initial reservations.
    edge::ResourceLedger ledger;
    std::vector<RequestState> states;  ///< parallel to decisions
    std::vector<double> compute;       ///< per admitted request: c(f_i)
    /// Under kReadmit, row-major [request][cloudlet]: Eq. 3's replica count
    /// N_ij for an admitted request, 0 where the cloudlet cannot meet R_i.
    std::vector<int> onsite_replicas;
    /// The arena: every request's sites, then every site's replicas, in
    /// admission order.
    std::vector<SiteState> sites;
    std::vector<ReplicaState> replicas;
    /// Per cloudlet: the requests that hold or held a site there, in victim
    /// order. A replay lists each site it adds and unlists shed and retired
    /// requests as the shedding scan passes them.
    std::vector<std::vector<Holder>> holders;
    /// Recovery wake-ups (a heap): requests placed short of R_i, at arrival.
    std::vector<Wake> wakes;
    /// Per slot, in index order: the admitted requests whose window covers
    /// it, and those whose window ends with it. A shed request stays listed,
    /// so the rest of its window keeps counting as disrupted.
    SlotLists covering;
    SlotLists ending;
    /// Algorithm 2's zero-dual scan order: reliability descending, id
    /// ascending.
    std::vector<CloudletId> zero_dual_order;
};

/// The fault-tolerance loop over a copy of a Base. Single-threaded and
/// RNG-free: all randomness was frozen into the FaultSchedule. Each slot
/// plays handover lapses, fault events, the due recovery visits,
/// accounting, the capacity audit and retirements, in that order.
class RecoveryReplay::Engine {
  public:
    explicit Engine(const Base& base)
        : instance_(base.instance),
          decisions_(base.decisions),
          config_(base.config),
          zero_dual_order_(base.zero_dual_order),
          ledger_(base.ledger),
          down_until_(base.instance.network.cloudlet_count(), 0),
          compute_(base.compute),
          onsite_replicas_(base.onsite_replicas),
          states_(base.states),
          sites_(base.sites),
          replicas_(base.replicas),
          covering_(base.covering),
          ending_(base.ending),
          holders_(base.holders),
          wakes_(base.wakes) {}

    RecoveryReport run(const FaultSchedule& schedule) {
        std::size_t next_event = 0;
        for (TimeSlot t = 0; t < instance_.horizon; ++t) {
            lapse_handovers(t);
            while (next_event < schedule.events.size() &&
                   schedule.events[next_event].slot == t) {
                apply_event(schedule.events[next_event], t);
                ++next_event;
            }
            if (config_.policy != RecoveryPolicy::kNone) recover_due(t);
            for (const std::size_t i : covering_.at(t)) account(i, t);
            audit_capacity(t);
            retire(t);
        }
        return report_;
    }

  private:
    [[nodiscard]] bool cloudlet_up(CloudletId c, TimeSlot t) const {
        return t >= down_until_[c.index()];
    }

    [[nodiscard]] const workload::Request& request_of(std::size_t i) const {
        return instance_.requests[i];
    }

    [[nodiscard]] double compute_of(std::size_t i) const { return compute_[i]; }

    /// Request `i`'s sites. Valid until the next add_site.
    [[nodiscard]] std::span<SiteState> sites_of(std::size_t i) {
        return {sites_.data() + states_[i].first_site, states_[i].site_count};
    }
    [[nodiscard]] std::span<const SiteState> sites_of(std::size_t i) const {
        return {sites_.data() + states_[i].first_site, states_[i].site_count};
    }

    /// A site's replicas. Valid until the next add_site.
    [[nodiscard]] std::span<ReplicaState> replicas_of(const SiteState& site) {
        return {replicas_.data() + site.first_replica, site.replica_count};
    }
    [[nodiscard]] std::span<const ReplicaState> replicas_of(const SiteState& site) const {
        return {replicas_.data() + site.first_replica, site.replica_count};
    }

    /// Appends a site of `count` copies of `replica` on `c` after request
    /// `i`'s existing sites, moving its site run to the arena's end first
    /// unless it already ends there.
    void add_site(std::size_t i, CloudletId c, std::size_t count, const ReplicaState& replica) {
        RequestState& state = states_[i];
        if (state.first_site + state.site_count != sites_.size()) {
            const std::size_t first = sites_.size();
            for (std::size_t s = 0; s < state.site_count; ++s) {
                const SiteState moved = sites_[state.first_site + s];
                sites_.push_back(moved);
            }
            state.first_site = first;
        }
        sites_.push_back(SiteState{c, replicas_.size(), count});
        replicas_.insert(replicas_.end(), count, replica);
        ++state.site_count;
    }

    /// t + slots saturated at the horizon: any slot at or past it already
    /// means "for the rest of the run", and the TimeSlot sum could overflow.
    [[nodiscard]] TimeSlot slot_after(TimeSlot t, std::int64_t slots) const {
        return static_cast<TimeSlot>(
            std::min<std::int64_t>(std::int64_t{t} + slots, instance_.horizon));
    }

    // ------------------------------------------------------------ wake-ups

    /// The first slot at or after `from` at which a recovery visit to
    /// request `i` can act, given its state now; kNever when none can
    /// before its window ends. Later events only delay that slot (an outage
    /// lengthens) or call changed(), so a visit at the returned slot is
    /// never late.
    [[nodiscard]] TimeSlot next_visit(std::size_t i, TimeSlot from) const {
        const RequestState& state = states_[i];
        const TimeSlot end = request_of(i).end();
        TimeSlot wake = end;
        if (config_.policy == RecoveryPolicy::kLocalRespawn) {
            // A dead replica with retries left, once its backoff has run
            // out and its cloudlet is up.
            for (const SiteState& site : sites_of(i)) {
                for (const ReplicaState& r : replicas_of(site)) {
                    if (r.alive || r.retries >= config_.max_retries) continue;
                    wake = std::min(wake, std::max({from, r.next_attempt,
                                                    down_until_[site.cloudlet.index()]}));
                }
            }
        } else if (!state.meets && state.recover_retries < config_.max_retries) {
            // Short of R_i with attempts left, once the backoff has run out.
            wake = std::max(from, state.next_recover_attempt);
        }
        return wake < end ? wake : kNever;
    }

    /// Queues request `i`'s next recovery visit at or after `from`.
    void schedule(std::size_t i, TimeSlot from) {
        const TimeSlot wake = next_visit(i, from);
        states_[i].wake_at = wake;
        if (wake != kNever) push_wake(wakes_, wake, i);
    }

    /// Request `i`'s replicas or sites changed at `t` outside its own
    /// recovery visit (a kill or a handover lapse): refresh what recovery
    /// reads and requeue it, possibly for `t` itself.
    void changed(std::size_t i, TimeSlot t) {
        if (config_.policy == RecoveryPolicy::kNone) return;
        refresh(i);
        schedule(i, t);
    }

    /// Recomputes request `i`'s meets and serve_until from its replicas.
    void refresh(std::size_t i) {
        RequestState& state = states_[i];
        state.serve_until = 0;
        for (const SiteState& site : sites_of(i)) {
            for (const ReplicaState& r : replicas_of(site)) {
                if (r.alive) state.serve_until = std::max(state.serve_until, r.expires_at);
            }
        }
        if (uses_deficits(config_.policy)) {
            state.meets = live_availability(instance_, i, sites_of(i), replicas_) +
                              kAvailSlack >=
                          request_of(i).requirement;
        }
    }

    /// Lapses handed-over replicas whose expiry is `t` (their reservations
    /// were already trimmed to the handover point; no release due).
    void lapse_handovers(TimeSlot t) {
        while (!lapses_.empty() && lapses_.front().slot <= t) {
            const std::size_t i = lapses_.front().request;
            std::pop_heap(lapses_.begin(), lapses_.end(), later);
            lapses_.pop_back();
            if (!request_of(i).covers(t)) continue;
            bool lapsed = false;
            for (const SiteState& site : sites_of(i)) {
                for (ReplicaState& r : replicas_of(site)) {
                    if (r.alive && t >= r.expires_at) {
                        r.alive = false;
                        lapsed = true;
                    }
                }
            }
            if (lapsed) changed(i, t);
        }
    }

    /// Visits, in ascending request index, every request whose wake-up is
    /// due at `t`. A visit changes no other request except by shedding it,
    /// and a shed request is never visited again, so the due set is fixed
    /// before the first visit.
    void recover_due(TimeSlot t) {
        due_.clear();
        while (!wakes_.empty() && wakes_.front().slot <= t) {
            const Wake w = wakes_.front();
            std::pop_heap(wakes_.begin(), wakes_.end(), later);
            wakes_.pop_back();
            if (states_[w.request].wake_at == w.slot) due_.push_back(w.request);
        }
        std::sort(due_.begin(), due_.end());
        due_.erase(std::unique(due_.begin(), due_.end()), due_.end());
        for (const std::size_t i : due_) {
            if (states_[i].shed) continue;
            switch (config_.policy) {
                case RecoveryPolicy::kNone: break;  // never queues a visit
                case RecoveryPolicy::kLocalRespawn: respawn_pass(i, t); break;
                case RecoveryPolicy::kRemoteMigrate: migrate_pass(i, t); break;
                case RecoveryPolicy::kReadmit: readmit_pass(i, t); break;
            }
            refresh(i);
            schedule(i, t + 1);
        }
    }

    // -------------------------------------------------------------- faults

    void kill_replica(std::size_t i, CloudletId c, ReplicaState& replica, TimeSlot t) {
        replica.alive = false;
        replica.down_until = 0;  // a respawn is a fresh, reachable instance
        const TimeSlot begin = std::max(t, replica.reserved_from);
        if (begin < replica.reserved_until)
            ledger_.release(c, begin, replica.reserved_until, compute_of(i));
        ++report_.instances_lost;
    }

    void crash_cloudlet(CloudletId c, TimeSlot t, TimeSlot down_slots) {
        down_until_[c.index()] = std::max(down_until_[c.index()], slot_after(t, down_slots));
        // Hardware reboots wipe instance state: every replica hosted on the
        // cloudlet is lost, not just unreachable.
        for (const std::size_t i : covering_.at(t)) {
            if (states_[i].shed) continue;
            bool lost = false;
            for (const SiteState& site : sites_of(i)) {
                if (site.cloudlet != c) continue;
                for (ReplicaState& replica : replicas_of(site)) {
                    if (!replica.alive) continue;
                    kill_replica(i, c, replica, t);
                    lost = true;
                }
            }
            if (lost) changed(i, t);
        }
    }

    void apply_event(const FaultEvent& e, TimeSlot t) {
        switch (e.kind) {
            case FaultKind::kCloudletCrash:
                ++report_.cloudlet_crashes;
                crash_cloudlet(e.cloudlet, t, e.down_slots);
                break;
            case FaultKind::kRackFailure: {
                ++report_.rack_failures;
                // Ids past the last cloudlet are not there to crash.
                const std::size_t first = e.cloudlet.index();
                const std::size_t last = first + std::min(e.span, down_until_.size() - first);
                for (std::size_t j = first; j < last; ++j) {
                    crash_cloudlet(CloudletId{static_cast<std::int64_t>(j)}, t, e.down_slots);
                }
                break;
            }
            case FaultKind::kTransientBlip:
                ++report_.transient_blips;
                down_until_[e.cloudlet.index()] =
                    std::max(down_until_[e.cloudlet.index()], slot_after(t, e.down_slots));
                break;
            case FaultKind::kInstanceCrash:
                if (ReplicaState* replica = address(e, t)) {
                    ++report_.instance_crashes;
                    kill_replica(e.request_index, sites_of(e.request_index)[e.site].cloudlet,
                                 *replica, t);
                    changed(e.request_index, t);
                }
                break;
            case FaultKind::kInstanceOutage:
                if (ReplicaState* replica = address(e, t)) {
                    replica->down_until =
                        std::max(replica->down_until, slot_after(t, e.down_slots));
                }
                break;
        }
    }

    /// The live replica an instance event addresses at `t`, or nullptr when
    /// the event is a no-op: the request is not active and standing, or the
    /// (site, replica) slot is gone from the *current* layout (a
    /// re-admission may have reshaped the placement) or already dead.
    ReplicaState* address(const FaultEvent& e, TimeSlot t) {
        const std::size_t i = e.request_index;
        if (!decisions_[i].admitted || states_[i].shed || !request_of(i).covers(t) ||
            e.site >= states_[i].site_count) {
            return nullptr;
        }
        const std::span<ReplicaState> replicas = replicas_of(sites_of(i)[e.site]);
        if (e.replica >= replicas.size() || !replicas[e.replica].alive) return nullptr;
        return &replicas[e.replica];
    }

    // ------------------------------------------------------------- serving

    /// The first replica, in (site, replica) order, that serves request `i`
    /// at `t`: a live, reachable replica on an up cloudlet that has finished
    /// spinning up and has not handed service over yet.
    [[nodiscard]] ServingReplica serving(std::size_t i, TimeSlot t) const {
        if (states_[i].shed) return {};
        const std::span<const SiteState> sites = sites_of(i);
        for (std::size_t s = 0; s < sites.size(); ++s) {
            if (!cloudlet_up(sites[s].cloudlet, t)) continue;
            const std::span<const ReplicaState> replicas = replicas_of(sites[s]);
            for (std::size_t k = 0; k < replicas.size(); ++k) {
                const ReplicaState& r = replicas[k];
                if (r.alive && r.ready_at <= t && t < r.expires_at && t >= r.down_until)
                    return {static_cast<std::ptrdiff_t>(s), k};
            }
        }
        return {};
    }

    /// Slots request `i` stands to gain if a recovery action lands now: the
    /// remainder of its window past the spin-up delay — and zero while it is
    /// still serving, because then recovery only restores redundancy and
    /// shedding a serving victim for redundancy is a pure availability loss.
    [[nodiscard]] std::size_t shed_gain_slots(std::size_t i, TimeSlot t) const {
        if (serving(i, t).site >= 0) return 0;
        const TimeSlot ready = slot_after(t, config_.respawn_delay_slots);
        const TimeSlot end = request_of(i).end();
        return end > ready ? static_cast<std::size_t>(end - ready) : 0;
    }

    // ------------------------------------------------------------ shedding

    /// Tears request `i` down and books the lost revenue. The request is
    /// still accounted in every slot of its window, so the rest of it counts
    /// as disrupted — shedding must never inflate availability.
    void shed(std::size_t i, TimeSlot t) {
        for (const SiteState& site : sites_of(i)) {
            for (ReplicaState& replica : replicas_of(site)) {
                if (!replica.alive) continue;
                replica.alive = false;
                const TimeSlot begin = std::max(t, replica.reserved_from);
                if (begin < replica.reserved_until)
                    ledger_.release(site.cloudlet, begin, replica.reserved_until,
                                    compute_of(i));
            }
        }
        states_[i].shed = true;
        ++report_.shed_requests;
        report_.shed_revenue += request_of(i).payment;
    }

    /// Adds what shedding `v` would free to freed_, per slot of [begin, end).
    void add_freed(const Victim& v, TimeSlot begin) {
        for (std::size_t f = v.first_span; f < v.end_span; ++f) {
            for (TimeSlot s = spans_[f].lo; s < spans_[f].hi; ++s) {
                freed_[static_cast<std::size_t>(s - begin)] += spans_[f].compute;
            }
        }
    }

    /// reserve() with graceful degradation: when the reservation does not
    /// fit, shed active requests paying less than `payment` that hold live
    /// replicas on `c` — lowest payment first, and only if the freed space
    /// actually makes the reservation fit (no victim is shed for nothing).
    ///
    /// Two guards keep degradation dominance-safe (recovery must never
    /// deliver less availability than doing nothing):
    ///   * `gain_slots` is 0 while the beneficiary is still serving, which
    ///     disables shedding entirely — redundancy repair may only use free
    ///     capacity;
    ///   * each committed victim set must lose strictly fewer slots than the
    ///     beneficiary stands to gain, both in absolute slots (aggregate
    ///     availability) and normalized by window length (mean delivered
    ///     R_i). Victims whose remaining window would break the budget are
    ///     skipped in favour of the next-cheapest one.
    bool reserve_with_shedding(CloudletId c, TimeSlot begin, TimeSlot end, double amount,
                               double payment, std::size_t self, TimeSlot t,
                               std::size_t gain_slots) {
        if (ledger_.reserve(c, begin, end, amount)) return true;
        if (!config_.allow_shedding || gain_slots == 0) return false;
        // No victim frees a slot at or past `freed_by`: a victim loses fewer
        // than gain_slots serving slots, so its committed service ends by
        // freed_by, and a live replica's reservation ends at its expiry,
        // which is at most there. (The beneficiary's own state may be stale
        // mid-visit, but it is never its own victim.) The slots of
        // [freed_by, end) must fit on what is free now, so they are checked
        // before the holders are walked.
        const TimeSlot freed_by = t + static_cast<TimeSlot>(gain_slots) - 1;
        const TimeSlot tail = std::max(begin, freed_by);
        for (TimeSlot s = end - 1; s >= tail; --s) {
            if (ledger_.residual(c, s) + 1e-9 < amount) return false;
        }
        const double gain_ratio = static_cast<double>(gain_slots) /
                                  static_cast<double>(request_of(self).duration);

        // The holder list is in victim order, so the scan ends at the first
        // holder paying as much as the beneficiary. Shed and retired holders
        // are unlisted as the scan passes them: both states are for good.
        // Holders that have not arrived yet stay listed but are no victims.
        // A victim holds a live reservation on `c`, and its live replicas
        // there give the spans of [begin, end) that shedding it would free.
        // The victims the slot budgets admit are kept in victim order, and
        // whatever set the dry run below sheds is a prefix of them.
        std::vector<Holder>& holders = holders_[c.index()];
        victims_.clear();
        spans_.clear();
        std::size_t lost_slots = 0;
        double lost_ratio = 0.0;
        std::size_t kept = 0;
        std::size_t next = 0;
        for (; next < holders.size(); ++next) {
            const Holder holder = holders[next];
            if (holder.payment >= payment) break;
            const RequestState& cand = states_[holder.request];
            if (t >= holder.end || cand.shed) continue;
            holders[kept++] = holder;
            if (holder.request == self || t < holder.arrival) continue;
            // The serving slots shedding it loses, the rest of its committed
            // service, must stay inside what the beneficiary stands to gain.
            const auto loss = static_cast<std::size_t>(std::max(t, cand.serve_until) - t);
            const double ratio =
                static_cast<double>(loss) / static_cast<double>(holder.end - holder.arrival);
            if (lost_slots + loss >= gain_slots || lost_ratio + ratio >= gain_ratio) continue;
            const Victim victim{holder.request, spans_.size(), spans_.size()};
            bool holds = false;
            for (const SiteState& site : sites_of(victim.request)) {
                if (site.cloudlet != c) continue;
                for (const ReplicaState& r : replicas_of(site)) {
                    if (!r.alive) continue;
                    if (std::max(t, r.reserved_from) < r.reserved_until) holds = true;
                    spans_.push_back(FreedSpan{std::max({begin, t, r.reserved_from}),
                                               std::min(end, r.reserved_until),
                                               compute_of(victim.request)});
                }
            }
            if (!holds) {
                spans_.resize(victim.first_span);
                continue;
            }
            lost_slots += loss;
            lost_ratio += ratio;
            victims_.push_back(victim);
            victims_.back().end_span = spans_.size();
        }
        holders.erase(holders.begin() + static_cast<std::ptrdiff_t>(kept),
                      holders.begin() + static_cast<std::ptrdiff_t>(next));
        if (victims_.empty()) return false;

        // Exact early-out: if shedding all of them would not make the
        // reservation fit in some slot, no prefix of them does. A slot's
        // freed amount is summed in the dry run's order, freed amounts are
        // non-negative and rounding is monotone, so a prefix never frees
        // more. The last slots, which the fewest victims still hold, are
        // checked first; those from `tail` on already were.
        for (TimeSlot s = tail - 1; s >= begin; --s) {
            double freed = 0.0;
            for (const FreedSpan& f : spans_) {  // the admitted victims' spans, in order
                if (f.lo <= s && s < f.hi) freed += f.compute;
            }
            if (ledger_.residual(c, s) + freed + 1e-9 < amount) return false;
        }

        // Dry run: the shortest prefix whose freed space makes the
        // reservation fit. The early-out proved the whole list does.
        for (const FreedSpan& f : spans_) {
            VNFR_DCHECK(f.hi <= freed_by, "a victim frees a slot past its committed service");
        }
        freed_.assign(static_cast<std::size_t>(end - begin), 0.0);
        const auto fits_with_freed = [&] {
            for (TimeSlot s = begin; s < end; ++s) {
                const double residual = ledger_.residual(c, s) +
                                        freed_[static_cast<std::size_t>(s - begin)];
                if (residual + 1e-9 < amount) return false;
            }
            return true;
        };
        std::size_t shed_count = 0;
        while (shed_count < victims_.size()) {
            add_freed(victims_[shed_count++], begin);
            if (fits_with_freed()) break;
        }
        VNFR_CHECK(fits_with_freed(), "the victims that fit all together do not fit");
        victims_.resize(shed_count);
        for (const Victim& v : victims_) shed(v.request, t);
        VNFR_CHECK(ledger_.reserve(c, begin, end, amount),
                   "shedding freed capacity but the reservation still failed");
        return true;
    }

    // ------------------------------------------------------------ recovery

    [[nodiscard]] TimeSlot backoff_until(TimeSlot t, int failures) const {
        const int shift = std::min(failures - 1, 6);
        return slot_after(t, std::int64_t{config_.retry_backoff_slots} << shift);
    }

    /// Candidate cloudlets for off-site style recovery: up at `t`, not
    /// already hosting live replicas of request `i`, in Algorithm 2's
    /// zero-dual order. Returns a scratch list valid until the next call.
    [[nodiscard]] const std::vector<CloudletId>& surviving_candidates(std::size_t i,
                                                                      TimeSlot t) {
        candidates_.clear();
        for (const CloudletId c : zero_dual_order_) {
            if (!cloudlet_up(c, t)) continue;
            bool hosts_live = false;
            for (const SiteState& site : sites_of(i)) {
                if (site.cloudlet != c) continue;
                for (const ReplicaState& r : replicas_of(site)) {
                    if (r.alive) hosts_live = true;
                }
            }
            if (!hosts_live) candidates_.push_back(c);
        }
        return candidates_;
    }

    /// A replica reserved from `t` to the end of request `i`'s window,
    /// serving once spun up.
    [[nodiscard]] ReplicaState fresh_replica(std::size_t i, TimeSlot t) const {
        ReplicaState replica;
        replica.alive = true;
        replica.reserved_from = t;
        replica.reserved_until = request_of(i).end();
        replica.expires_at = request_of(i).end();
        replica.ready_at = slot_after(t, config_.respawn_delay_slots);
        return replica;
    }

    void respawn_pass(std::size_t i, TimeSlot t) {
        const workload::Request& req = request_of(i);
        if (t >= req.end()) return;  // final slot already played out
        const double compute = compute_of(i);
        const std::size_t gain = shed_gain_slots(i, t);
        for (const SiteState& site : sites_of(i)) {
            if (!cloudlet_up(site.cloudlet, t)) continue;  // wait for the reboot
            for (ReplicaState& replica : replicas_of(site)) {
                if (replica.alive) continue;
                if (replica.retries >= config_.max_retries) continue;
                if (t < replica.next_attempt) continue;
                if (reserve_with_shedding(site.cloudlet, t, req.end(), compute, req.payment, i,
                                          t, gain)) {
                    replica = fresh_replica(i, t);
                    ++report_.local_respawns;
                } else {
                    ++replica.retries;
                    replica.next_attempt = backoff_until(t, replica.retries);
                    ++report_.failed_recoveries;
                }
            }
        }
    }

    void migrate_pass(std::size_t i, TimeSlot t) {
        RequestState& state = states_[i];
        const workload::Request& req = request_of(i);
        if (t >= req.end()) return;
        if (state.meets) return;
        if (state.recover_retries >= config_.max_retries) return;
        if (t < state.next_recover_attempt) return;

        const double compute = compute_of(i);
        const double vnf_rel = instance_.catalog.reliability(req.vnf);
        const std::size_t gain = shed_gain_slots(i, t);
        double avail = live_availability(instance_, i, sites_of(i), replicas_);
        bool met = false;
        for (const CloudletId c : surviving_candidates(i, t)) {
            if (!reserve_with_shedding(c, t, req.end(), compute, req.payment, i, t, gain)) {
                continue;  // no room there; Algorithm 2's scan moves on
            }
            add_site(i, c, 1, fresh_replica(i, t));
            list_holder(instance_, holders_[c.index()], i);
            const double rel = instance_.network.cloudlet(c).reliability;
            avail = 1.0 - (1.0 - avail) * (1.0 - vnf_rel * rel);
            if (avail + kAvailSlack >= req.requirement) {
                met = true;
                break;
            }
        }
        if (met) {
            state.recover_retries = 0;
            ++report_.remote_migrations;
        } else {
            // Any sites added on the way stay — partial redundancy beats
            // none — but the attempt counts as failed and backs off.
            ++state.recover_retries;
            state.next_recover_attempt = backoff_until(t, state.recover_retries);
            ++report_.failed_recoveries;
        }
    }

    void readmit_pass(std::size_t i, TimeSlot t) {
        RequestState& state = states_[i];
        const workload::Request& req = request_of(i);
        if (t >= req.end()) return;
        if (state.meets) return;
        if (state.recover_retries >= config_.max_retries) return;
        if (t < state.next_recover_attempt) return;

        const double compute = compute_of(i);
        const double vnf_rel = instance_.catalog.reliability(req.vnf);
        const std::size_t m = instance_.network.cloudlet_count();
        const int* onsite_row = onsite_replicas_.data() + i * m;

        // The live scheduler's per-request choice (as in HybridPrimalDual):
        // cheapest of the on-site Eq. 3 placement and the off-site Eq. 10
        // set over the surviving, capacity-checked cloudlets.
        std::optional<core::Site> onsite;
        double onsite_cost = 0;
        for (std::size_t j = 0; j < m; ++j) {
            const CloudletId c{static_cast<std::int64_t>(j)};
            if (!cloudlet_up(c, t) || onsite_row[j] == 0) continue;
            const double cost = onsite_row[j] * compute;
            if (!ledger_.fits(c, t, req.end(), cost)) continue;
            if (!onsite || cost < onsite_cost) {
                onsite = core::Site{c, onsite_row[j]};
                onsite_cost = cost;
            }
        }
        offsite_.clear();
        double offsite_cost = 0;
        double avail = 0.0;
        for (const CloudletId c : surviving_candidates(i, t)) {
            if (!ledger_.fits(c, t, req.end(), compute)) continue;
            offsite_.push_back(core::Site{c, 1});
            offsite_cost += compute;
            const double rel = instance_.network.cloudlet(c).reliability;
            avail = 1.0 - (1.0 - avail) * (1.0 - vnf_rel * rel);
            if (avail + kAvailSlack >= req.requirement) break;
        }
        const bool offsite_meets = avail + kAvailSlack >= req.requirement;

        placement_.clear();
        if (onsite && (!offsite_meets || onsite_cost <= offsite_cost)) {
            placement_.push_back(*onsite);
        } else if (offsite_meets) {
            placement_.swap(offsite_);
        }

        // Make-before-break: reserve the new placement first; the old one
        // is only released once the new one holds. A capacity-blocked
        // readmission may shed (single-cloudlet options only — multi-site
        // shedding cascades are more damage than degradation).
        bool reserved = false;
        if (!placement_.empty()) {
            reserved = true;
            for (std::size_t s = 0; s < placement_.size(); ++s) {
                const core::Site& site = placement_[s];
                const double amount = site.replicas * compute;
                if (!ledger_.reserve(site.cloudlet, t, req.end(), amount)) {
                    for (std::size_t u = 0; u < s; ++u) {  // roll back
                        ledger_.release(placement_[u].cloudlet, t, req.end(),
                                        placement_[u].replicas * compute);
                    }
                    reserved = false;
                    break;
                }
            }
        }
        if (!reserved && config_.allow_shedding) {
            // Retry the cheapest single-cloudlet on-site option, letting
            // shedding free the space.
            std::optional<core::Site> forced;
            double forced_cost = 0;
            for (std::size_t j = 0; j < m; ++j) {
                const CloudletId c{static_cast<std::int64_t>(j)};
                if (!cloudlet_up(c, t) || onsite_row[j] == 0) continue;
                const double cost = onsite_row[j] * compute;
                if (!forced || cost < forced_cost) {
                    forced = core::Site{c, onsite_row[j]};
                    forced_cost = cost;
                }
            }
            if (forced && reserve_with_shedding(forced->cloudlet, t, req.end(), forced_cost,
                                                req.payment, i, t, shed_gain_slots(i, t))) {
                placement_.assign(1, *forced);
                reserved = true;
            }
        }
        if (!reserved) {
            ++state.recover_retries;
            state.next_recover_attempt = backoff_until(t, state.recover_retries);
            ++report_.failed_recoveries;
            return;
        }

        // Break — as a handover, not a teardown: surviving old replicas
        // keep serving through the new placement's spin-up and expire the
        // slot it becomes ready, so a re-admission never loses a slot that
        // doing nothing would have served. Their reservations are trimmed
        // to the handover point right away, and the lapse is queued.
        const TimeSlot ready = slot_after(t, config_.respawn_delay_slots);
        for (const SiteState& site : sites_of(i)) {
            for (ReplicaState& replica : replicas_of(site)) {
                if (!replica.alive) continue;
                const TimeSlot expiry =
                    std::min(std::max(t, ready), replica.reserved_until);
                if (std::max(t, replica.reserved_from) < replica.reserved_until &&
                    expiry < replica.reserved_until) {
                    ledger_.release(site.cloudlet, std::max(expiry, replica.reserved_from),
                                    replica.reserved_until, compute);
                }
                replica.reserved_until = expiry;
                replica.expires_at = expiry;
                if (t >= expiry) {
                    replica.alive = false;
                } else if (expiry < req.end()) {
                    push_wake(lapses_, expiry, i);
                }
            }
        }
        // Old (expiring) sites stay in place until they lapse; the new
        // sites are appended after them, and the serving scan prefers the
        // first ready site, so service hands over seamlessly.
        for (const core::Site& site : placement_) {
            add_site(i, site.cloudlet, static_cast<std::size_t>(site.replicas),
                     fresh_replica(i, t));
            list_holder(instance_, holders_[site.cloudlet.index()], i);
        }
        state.recover_retries = 0;
        ++report_.readmissions;
    }

    // ---------------------------------------------------------- accounting

    void account(std::size_t i, TimeSlot t) {
        RequestState& state = states_[i];
        ++report_.request_slots;
        ++state.window_slots;

        const ServingReplica now = serving(i, t);
        if (now.site >= 0) {
            ++report_.served_slots;
            ++state.served;
            const CloudletId c = sites_of(i)[static_cast<std::size_t>(now.site)].cloudlet;
            if (state.was_serving) {
                if (c != state.last_cloudlet) {
                    ++report_.remote_failovers;
                } else if (now != state.last) {
                    ++report_.local_failovers;
                }
            } else if (state.accounted) {
                ++report_.recovered_outages;
                if (state.disruption_start >= 0) {
                    report_.recovery_slots_total +=
                        static_cast<std::size_t>(t - state.disruption_start);
                }
            }
            state.was_serving = true;
            state.last = now;
            state.last_cloudlet = c;
        } else {
            ++report_.disrupted_slots;
            if (state.was_serving) {
                ++report_.outages;
                state.disruption_start = t;
            }
            state.was_serving = false;
        }
        state.accounted = true;
    }

    void audit_capacity(TimeSlot t) {
        for (std::size_t j = 0; j < instance_.network.cloudlet_count(); ++j) {
            const CloudletId c{static_cast<std::int64_t>(j)};
            if (ledger_.usage(c, t) > ledger_.capacity(c) + 1e-6) {
                ++report_.capacity_violations;
            }
        }
    }

    void retire(TimeSlot t) {
        for (const std::size_t i : ending_.at(t)) {
            const workload::Request& req = instance_.requests[i];
            const RequestState& state = states_[i];
            ++report_.sla_requests;
            report_.promised_availability_sum += req.requirement;
            const double delivered =
                state.window_slots == 0
                    ? 0.0
                    : static_cast<double>(state.served) /
                          static_cast<double>(state.window_slots);
            report_.delivered_availability_sum += delivered;
            if (delivered + 1e-9 < req.requirement) ++report_.sla_violations;
        }
    }

    const core::Instance& instance_;
    const std::vector<core::Decision>& decisions_;
    const RecoveryConfig& config_;
    const std::vector<CloudletId>& zero_dual_order_;
    edge::ResourceLedger ledger_;
    std::vector<TimeSlot> down_until_;  ///< per cloudlet; up iff t >= down_until
    const std::vector<double>& compute_;     ///< see Base::compute
    const std::vector<int>& onsite_replicas_;  ///< see Base::onsite_replicas
    std::vector<RequestState> states_;  ///< parallel to decisions
    std::vector<SiteState> sites_;      ///< see Base::sites
    std::vector<ReplicaState> replicas_;
    const SlotLists& covering_;  ///< see Base::covering
    const SlotLists& ending_;    ///< see Base::ending
    std::vector<std::vector<Holder>> holders_;  ///< see Base::holders
    std::vector<Wake> wakes_;   ///< recovery visits (a heap; see RequestState::wake_at)
    std::vector<Wake> lapses_;  ///< handover expiries (a heap)
    RecoveryReport report_;
    // Scratch reused across calls (contents are per call).
    std::vector<std::size_t> due_;
    std::vector<FreedSpan> spans_;
    std::vector<double> freed_;
    std::vector<Victim> victims_;
    std::vector<CloudletId> candidates_;
    std::vector<core::Site> offsite_;
    std::vector<core::Site> placement_;
};

namespace {

/// Rejects a schedule the engine would misread: the replay consumes events
/// in slot order and indexes cloudlets and requests directly.
void validate_schedule(const core::Instance& instance, const FaultSchedule& schedule) {
    const auto reject = [](std::size_t index, const char* field, const auto& value) {
        std::ostringstream msg;
        msg << "run_recovery_study: fault event " << index << " has invalid " << field
            << " " << value;
        throw std::invalid_argument(msg.str());
    };
    TimeSlot previous = 0;
    for (std::size_t n = 0; n < schedule.events.size(); ++n) {
        const FaultEvent& e = schedule.events[n];
        if (e.slot < previous || e.slot >= instance.horizon) reject(n, "slot", e.slot);
        previous = e.slot;
        if (e.down_slots < 1) reject(n, "down_slots", e.down_slots);
        if (e.span < 1) reject(n, "span", e.span);
        switch (e.kind) {
            case FaultKind::kCloudletCrash:
            case FaultKind::kTransientBlip:
            case FaultKind::kRackFailure:
                if (!e.cloudlet.valid() ||
                    e.cloudlet.index() >= instance.network.cloudlet_count())
                    reject(n, "cloudlet", e.cloudlet.value);
                break;
            case FaultKind::kInstanceCrash:
            case FaultKind::kInstanceOutage:
                if (e.request_index >= instance.requests.size())
                    reject(n, "request_index", e.request_index);
                break;
        }
    }
}

}  // namespace

RecoveryReplay::RecoveryReplay(const core::Instance& instance,
                               const std::vector<core::Decision>& decisions,
                               const RecoveryConfig& config) {
    instance.validate();
    if (decisions.size() != instance.requests.size())
        throw std::invalid_argument("run_recovery_study: decisions/requests size mismatch");
    base_ = std::make_unique<Base>(instance, decisions, config);
}

RecoveryReplay::~RecoveryReplay() = default;

RecoveryReport RecoveryReplay::run(const FaultSchedule& schedule) const {
    validate_schedule(base_->instance, schedule);
    Engine engine(*base_);
    return engine.run(schedule);
}

RecoveryReport run_recovery_study(const core::Instance& instance,
                                  const std::vector<core::Decision>& decisions,
                                  const FaultSchedule& schedule,
                                  const RecoveryConfig& config) {
    const RecoveryReplay replay(instance, decisions, config);
    return replay.run(schedule);
}

}  // namespace vnfr::sim
