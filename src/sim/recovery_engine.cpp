#include "sim/recovery_engine.hpp"

#include <algorithm>
#include <cmath>
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

struct SiteState {
    CloudletId cloudlet;
    std::vector<ReplicaState> replicas;
};

struct RequestState {
    std::size_t index{0};  ///< into Instance::requests / decisions
    std::vector<SiteState> sites;
    bool shed{false};
    int recover_retries{0};  ///< migrate/readmit attempts (per request)
    TimeSlot next_recover_attempt{0};
    std::size_t window_slots{0};
    std::size_t served{0};
    bool accounted{false};      ///< at least one slot accounted
    bool was_serving{false};
    TimeSlot disruption_start{-1};
    ServingReplica last{};
    CloudletId last_cloudlet{};
};

/// The shedding scan's victim order: payment ascending, then request index.
[[nodiscard]] bool sheds_before(const core::Instance& instance, std::size_t a,
                                std::size_t b) {
    const double pa = instance.requests[a].payment;
    const double pb = instance.requests[b].payment;
    // vnfr-lint: allow(float-eq) exact tie-break for a deterministic order
    if (pa != pb) return pa < pb;
    return a < b;
}

/// Lists request `i` among one cloudlet's holders, keeping the list in
/// victim order; a request already listed is not listed twice.
void list_holder(const core::Instance& instance, std::vector<std::size_t>& holders,
                 std::size_t i) {
    const auto at = std::lower_bound(
        holders.begin(), holders.end(), i,
        [&](std::size_t a, std::size_t b) { return sheds_before(instance, a, b); });
    if (at == holders.end() || *at != i) holders.insert(at, i);
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
          holders(inst.network.cloudlet_count()) {
        VNFR_CHECK(config.max_retries >= 0, "max_retries must be >= 0");
        VNFR_CHECK(config.respawn_delay_slots >= 0, "respawn_delay_slots must be >= 0");
        VNFR_CHECK(config.retry_backoff_slots >= 1, "retry_backoff_slots must be >= 1");
        for (std::size_t i = 0; i < decs.size(); ++i) {
            if (!decs[i].admitted) continue;
            const workload::Request& req = inst.requests[i];
            const double compute = inst.catalog.compute_units(req.vnf);
            RequestState& state = states[i];
            state.index = i;
            for (const core::Site& site : decs[i].placement.sites) {
                SiteState s;
                s.cloudlet = site.cloudlet;
                for (int k = 0; k < site.replicas; ++k) {
                    if (!ledger.reserve(site.cloudlet, req.arrival, req.end(), compute))
                        throw ScheduleNotReplayable(
                            "run_recovery_study: schedule violates cloudlet capacity "
                            "(pure Algorithm 1 schedules are not replayable)");
                    ReplicaState r;
                    r.alive = true;
                    r.ready_at = req.arrival;
                    r.reserved_from = req.arrival;
                    r.reserved_until = req.end();
                    r.expires_at = req.end();
                    s.replicas.push_back(r);
                }
                list_holder(inst, holders[site.cloudlet.index()], i);
                state.sites.push_back(std::move(s));
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
    /// Per cloudlet: every request that has held a site there, in victim
    /// order. Replays only add to it (recovery sites are never removed).
    std::vector<std::vector<std::size_t>> holders;
    /// Algorithm 2's zero-dual scan order: reliability descending, id
    /// ascending.
    std::vector<CloudletId> zero_dual_order;
};

/// The per-slot fault-tolerance loop over a copy of a Base. Single-threaded
/// and RNG-free: all randomness was frozen into the FaultSchedule.
class RecoveryReplay::Engine {
  public:
    explicit Engine(const Base& base)
        : instance_(base.instance),
          decisions_(base.decisions),
          config_(base.config),
          zero_dual_order_(base.zero_dual_order),
          ledger_(base.ledger),
          down_until_(base.instance.network.cloudlet_count(), 0),
          states_(base.states),
          holders_(base.holders) {}

    RecoveryReport run(const FaultSchedule& schedule) {
        std::size_t next_event = 0;
        std::size_t next_request = 0;
        for (TimeSlot t = 0; t < instance_.horizon; ++t) {
            while (next_request < instance_.requests.size() &&
                   instance_.requests[next_request].arrival == t) {
                if (decisions_[next_request].admitted) active_.push_back(next_request);
                ++next_request;
            }
            // Lapse handed-over replicas (their reservations were already
            // trimmed to the handover point; no release due).
            for (const std::size_t i : active_) {
                for (SiteState& site : states_[i].sites) {
                    for (ReplicaState& r : site.replicas) {
                        if (r.alive && t >= r.expires_at) r.alive = false;
                    }
                }
            }
            while (next_event < schedule.events.size() &&
                   schedule.events[next_event].slot == t) {
                apply_event(schedule.events[next_event], t);
                ++next_event;
            }
            if (config_.policy != RecoveryPolicy::kNone) {
                for (const std::size_t i : active_) recover(states_[i], t);
            }
            for (const std::size_t i : active_) account(states_[i], t);
            audit_capacity(t);
            retire(t);
        }
        return report_;
    }

  private:
    [[nodiscard]] bool cloudlet_up(CloudletId c, TimeSlot t) const {
        return t >= down_until_[c.index()];
    }

    [[nodiscard]] const workload::Request& request_of(const RequestState& s) const {
        return instance_.requests[s.index];
    }

    [[nodiscard]] double compute_of(const RequestState& s) const {
        return instance_.catalog.compute_units(request_of(s).vnf);
    }

    /// t + slots saturated at the horizon: any slot at or past it already
    /// means "for the rest of the run", and the TimeSlot sum could overflow.
    [[nodiscard]] TimeSlot slot_after(TimeSlot t, std::int64_t slots) const {
        return static_cast<TimeSlot>(
            std::min<std::int64_t>(std::int64_t{t} + slots, instance_.horizon));
    }

    void kill_replica(RequestState& state, SiteState& site, ReplicaState& replica,
                      TimeSlot t) {
        replica.alive = false;
        replica.down_until = 0;  // a respawn is a fresh, reachable instance
        const TimeSlot begin = std::max(t, replica.reserved_from);
        if (begin < replica.reserved_until)
            ledger_.release(site.cloudlet, begin, replica.reserved_until,
                            compute_of(state));
        ++report_.instances_lost;
    }

    void crash_cloudlet(CloudletId c, TimeSlot t, TimeSlot down_slots) {
        down_until_[c.index()] = std::max(down_until_[c.index()], slot_after(t, down_slots));
        // Hardware reboots wipe instance state: every replica hosted on the
        // cloudlet is lost, not just unreachable.
        for (const std::size_t i : active_) {
            RequestState& state = states_[i];
            if (state.shed) continue;
            for (SiteState& site : state.sites) {
                if (site.cloudlet != c) continue;
                for (ReplicaState& replica : site.replicas) {
                    if (replica.alive) kill_replica(state, site, replica, t);
                }
            }
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
                    RequestState& state = states_[e.request_index];
                    kill_replica(state, state.sites[e.site], *replica, t);
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
        RequestState& state = states_[e.request_index];
        if (!decisions_[e.request_index].admitted || state.shed ||
            !request_of(state).covers(t) || e.site >= state.sites.size()) {
            return nullptr;
        }
        std::vector<ReplicaState>& replicas = state.sites[e.site].replicas;
        if (e.replica >= replicas.size() || !replicas[e.replica].alive) return nullptr;
        return &replicas[e.replica];
    }

    /// Analytic availability of the live placement: per site
    /// r(c_j)(1 - (1 - r(f_i))^{alive_j}) combined across sites by Eq. 10.
    /// Pending respawns count — they are already paid for and on the way,
    /// so they must not re-trigger recovery every slot of their spin-up.
    /// Deliberately not core::placement_availability: it counts live
    /// replicas only and multiplies failure probabilities directly rather
    /// than summing their logs, so sharing that function would change the
    /// recovery reports' bits.
    [[nodiscard]] double live_availability(const RequestState& state) const {
        const double vnf_rel = instance_.catalog.reliability(request_of(state).vnf);
        double fail = 1.0;
        for (const SiteState& site : state.sites) {
            int alive = 0;
            for (const ReplicaState& r : site.replicas) {
                if (r.alive) ++alive;
            }
            if (alive == 0) continue;
            const double rel = instance_.network.cloudlet(site.cloudlet).reliability;
            fail *= 1.0 - vnf::onsite_availability(rel, vnf_rel, alive);
        }
        return VNFR_CHECK_PROB(1.0 - fail);
    }

    /// The first replica, in (site, replica) order, that serves the request
    /// at `t`: a live, reachable replica on an up cloudlet that has finished
    /// spinning up and has not handed service over yet.
    [[nodiscard]] ServingReplica serving(const RequestState& state, TimeSlot t) const {
        if (state.shed) return {};
        for (std::size_t s = 0; s < state.sites.size(); ++s) {
            const SiteState& site = state.sites[s];
            if (!cloudlet_up(site.cloudlet, t)) continue;
            for (std::size_t k = 0; k < site.replicas.size(); ++k) {
                const ReplicaState& r = site.replicas[k];
                if (r.alive && r.ready_at <= t && t < r.expires_at && t >= r.down_until)
                    return {static_cast<std::ptrdiff_t>(s), k};
            }
        }
        return {};
    }

    /// Slots the request stands to gain if a recovery action lands now: the
    /// remainder of its window past the spin-up delay — and zero while it is
    /// still serving, because then recovery only restores redundancy and
    /// shedding a serving victim for redundancy is a pure availability loss.
    [[nodiscard]] std::size_t shed_gain_slots(const RequestState& state, TimeSlot t) const {
        if (serving(state, t).site >= 0) return 0;
        const TimeSlot ready = slot_after(t, config_.respawn_delay_slots);
        const TimeSlot end = request_of(state).end();
        return end > ready ? static_cast<std::size_t>(end - ready) : 0;
    }

    /// Serving slots a victim would lose if shed at `t`: the rest of its
    /// committed service (capped by handover expiries already in place).
    [[nodiscard]] std::size_t victim_loss_slots(const RequestState& cand, TimeSlot t) const {
        TimeSlot last = t;
        for (const SiteState& site : cand.sites) {
            for (const ReplicaState& r : site.replicas) {
                if (r.alive) last = std::max(last, r.expires_at);
            }
        }
        return static_cast<std::size_t>(last - t);
    }

    /// Tears the whole request down and books the lost revenue. The request
    /// stays in the active set so its remaining window keeps counting as
    /// disrupted — shedding must never inflate availability.
    void shed(RequestState& state, TimeSlot t) {
        for (SiteState& site : state.sites) {
            for (ReplicaState& replica : site.replicas) {
                if (!replica.alive) continue;
                replica.alive = false;
                const TimeSlot begin = std::max(t, replica.reserved_from);
                if (begin < replica.reserved_until)
                    ledger_.release(site.cloudlet, begin, replica.reserved_until,
                                    compute_of(state));
            }
        }
        state.shed = true;
        ++report_.shed_requests;
        report_.shed_revenue += request_of(state).payment;
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
        const double gain_ratio =
            static_cast<double>(gain_slots) /
            static_cast<double>(request_of(states_[self]).duration);

        // The holder list is in victim order, so the scan ends at the first
        // holder paying as much as the beneficiary. Listed is not active:
        // shed, retired and not-yet-arrived holders are skipped.
        victims_.clear();
        for (const std::size_t i : holders_[c.index()]) {
            const RequestState& cand = states_[i];
            if (request_of(cand).payment >= payment) break;
            if (i == self || cand.shed || !request_of(cand).covers(t)) continue;
            bool holds = false;
            for (const SiteState& site : cand.sites) {
                if (site.cloudlet != c) continue;
                for (const ReplicaState& r : site.replicas) {
                    if (r.alive && std::max(t, r.reserved_from) < r.reserved_until) {
                        holds = true;
                    }
                }
            }
            if (holds) victims_.push_back(i);
        }

        // Dry-run: how much usage each victim set would free on `c` per
        // slot of [begin, end); commit only when a set makes it fit while
        // staying inside the slot budgets.
        freed_.assign(static_cast<std::size_t>(end - begin), 0.0);
        const auto fits_with_freed = [&] {
            for (TimeSlot s = begin; s < end; ++s) {
                const double residual = ledger_.residual(c, s) +
                                        freed_[static_cast<std::size_t>(s - begin)];
                if (residual + 1e-9 < amount) return false;
            }
            return true;
        };
        chosen_.clear();
        std::size_t lost_slots = 0;
        double lost_ratio = 0.0;
        bool enough = false;
        for (const std::size_t v : victims_) {
            const RequestState& cand = states_[v];
            const std::size_t loss = victim_loss_slots(cand, t);
            const double ratio = static_cast<double>(loss) /
                                 static_cast<double>(request_of(cand).duration);
            if (lost_slots + loss >= gain_slots || lost_ratio + ratio >= gain_ratio) {
                continue;  // this victim would cost more than recovery gains
            }
            const double cand_compute = compute_of(cand);
            for (const SiteState& site : cand.sites) {
                if (site.cloudlet != c) continue;
                for (const ReplicaState& r : site.replicas) {
                    if (!r.alive) continue;
                    const TimeSlot lo = std::max({begin, t, r.reserved_from});
                    const TimeSlot hi = std::min(end, r.reserved_until);
                    for (TimeSlot s = lo; s < hi; ++s) {
                        freed_[static_cast<std::size_t>(s - begin)] += cand_compute;
                    }
                }
            }
            lost_slots += loss;
            lost_ratio += ratio;
            chosen_.push_back(v);
            if (fits_with_freed()) {
                enough = true;
                break;
            }
        }
        if (!enough) return false;
        for (const std::size_t v : chosen_) shed(states_[v], t);
        VNFR_CHECK(ledger_.reserve(c, begin, end, amount),
                   "shedding freed capacity but the reservation still failed");
        return true;
    }

    [[nodiscard]] TimeSlot backoff_until(TimeSlot t, int failures) const {
        const int shift = std::min(failures - 1, 6);
        return slot_after(t, std::int64_t{config_.retry_backoff_slots} << shift);
    }

    /// Candidate cloudlets for off-site style recovery: up at `t`, not
    /// already hosting live replicas of the request, in Algorithm 2's
    /// zero-dual order. Returns a scratch list valid until the next call.
    [[nodiscard]] const std::vector<CloudletId>& surviving_candidates(
        const RequestState& state, TimeSlot t) {
        candidates_.clear();
        for (const CloudletId c : zero_dual_order_) {
            if (!cloudlet_up(c, t)) continue;
            bool hosts_live = false;
            for (const SiteState& site : state.sites) {
                if (site.cloudlet != c) continue;
                for (const ReplicaState& r : site.replicas) {
                    if (r.alive) hosts_live = true;
                }
            }
            if (!hosts_live) candidates_.push_back(c);
        }
        return candidates_;
    }

    void recover(RequestState& state, TimeSlot t) {
        if (state.shed) return;
        switch (config_.policy) {
            case RecoveryPolicy::kNone: return;
            case RecoveryPolicy::kLocalRespawn: respawn_pass(state, t); return;
            case RecoveryPolicy::kRemoteMigrate: migrate_pass(state, t); return;
            case RecoveryPolicy::kReadmit: readmit_pass(state, t); return;
        }
    }

    void respawn_pass(RequestState& state, TimeSlot t) {
        const workload::Request& req = request_of(state);
        if (t >= req.end()) return;  // final slot already played out
        const double compute = compute_of(state);
        const std::size_t gain = shed_gain_slots(state, t);
        for (SiteState& site : state.sites) {
            if (!cloudlet_up(site.cloudlet, t)) continue;  // wait for the reboot
            for (ReplicaState& replica : site.replicas) {
                if (replica.alive) continue;
                if (replica.retries >= config_.max_retries) continue;
                if (t < replica.next_attempt) continue;
                if (reserve_with_shedding(site.cloudlet, t, req.end(), compute,
                                          req.payment, state.index, t, gain)) {
                    replica.alive = true;
                    replica.reserved_from = t;
                    replica.reserved_until = req.end();
                    replica.expires_at = req.end();
                    replica.ready_at = slot_after(t, config_.respawn_delay_slots);
                    replica.retries = 0;
                    ++report_.local_respawns;
                } else {
                    ++replica.retries;
                    replica.next_attempt = backoff_until(t, replica.retries);
                    ++report_.failed_recoveries;
                }
            }
        }
    }

    void migrate_pass(RequestState& state, TimeSlot t) {
        const workload::Request& req = request_of(state);
        if (t >= req.end()) return;
        if (live_availability(state) + kAvailSlack >= req.requirement) return;
        if (state.recover_retries >= config_.max_retries) return;
        if (t < state.next_recover_attempt) return;

        const double compute = compute_of(state);
        const double vnf_rel = instance_.catalog.reliability(req.vnf);
        const std::size_t gain = shed_gain_slots(state, t);
        double avail = live_availability(state);
        bool met = false;
        for (const CloudletId c : surviving_candidates(state, t)) {
            if (!reserve_with_shedding(c, t, req.end(), compute, req.payment,
                                       state.index, t, gain)) {
                continue;  // no room there; Algorithm 2's scan moves on
            }
            SiteState site;
            site.cloudlet = c;
            ReplicaState replica;
            replica.alive = true;
            replica.reserved_from = t;
            replica.reserved_until = req.end();
            replica.expires_at = req.end();
            replica.ready_at = slot_after(t, config_.respawn_delay_slots);
            site.replicas.push_back(replica);
            state.sites.push_back(std::move(site));
            list_holder(instance_, holders_[c.index()], state.index);
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

    void readmit_pass(RequestState& state, TimeSlot t) {
        const workload::Request& req = request_of(state);
        if (t >= req.end()) return;
        if (live_availability(state) + kAvailSlack >= req.requirement) return;
        if (state.recover_retries >= config_.max_retries) return;
        if (t < state.next_recover_attempt) return;

        const double compute = compute_of(state);
        const double vnf_rel = instance_.catalog.reliability(req.vnf);
        const vnf::ReplicaRow& row = instance_.catalog.replica_row(req.vnf);

        // The live scheduler's per-request choice (as in HybridPrimalDual):
        // cheapest of the on-site Eq. 3 placement and the off-site Eq. 10
        // set over the surviving, capacity-checked cloudlets.
        struct Option {
            std::vector<core::Site> sites;
            double cost{0};
        };
        std::optional<Option> onsite;
        for (std::size_t j = 0; j < instance_.network.cloudlet_count(); ++j) {
            const CloudletId c{static_cast<std::int64_t>(j)};
            if (!cloudlet_up(c, t)) continue;
            const double rel = instance_.network.cloudlet(c).reliability;
            const auto replicas = vnf::onsite_replicas(row, rel, req.requirement);
            if (!replicas) continue;
            const double cost = *replicas * compute;
            if (!ledger_.fits(c, t, req.end(), cost)) continue;
            if (!onsite || cost < onsite->cost) {
                onsite = Option{{core::Site{c, *replicas}}, cost};
            }
        }
        std::optional<Option> offsite;
        {
            Option opt;
            double avail = 0.0;
            for (const CloudletId c : surviving_candidates(state, t)) {
                if (!ledger_.fits(c, t, req.end(), compute)) continue;
                opt.sites.push_back(core::Site{c, 1});
                opt.cost += compute;
                const double rel = instance_.network.cloudlet(c).reliability;
                avail = 1.0 - (1.0 - avail) * (1.0 - vnf_rel * rel);
                if (avail + kAvailSlack >= req.requirement) break;
            }
            if (avail + kAvailSlack >= req.requirement) offsite = std::move(opt);
        }

        std::optional<Option> chosen;
        if (onsite && (!offsite || onsite->cost <= offsite->cost)) {
            chosen = std::move(onsite);
        } else if (offsite) {
            chosen = std::move(offsite);
        }

        // Make-before-break: reserve the new placement first; the old one
        // is only released once the new one holds. A capacity-blocked
        // readmission may shed (single-cloudlet options only — multi-site
        // shedding cascades are more damage than degradation).
        std::vector<SiteState> fresh;
        bool reserved = false;
        if (chosen) {
            reserved = true;
            for (std::size_t s = 0; s < chosen->sites.size(); ++s) {
                const core::Site& site = chosen->sites[s];
                const double amount = site.replicas * compute;
                if (!ledger_.reserve(site.cloudlet, t, req.end(), amount)) {
                    for (std::size_t u = 0; u < s; ++u) {  // roll back
                        ledger_.release(chosen->sites[u].cloudlet, t, req.end(),
                                        chosen->sites[u].replicas * compute);
                    }
                    reserved = false;
                    break;
                }
            }
        }
        if (!reserved && config_.allow_shedding) {
            // Retry the cheapest single-cloudlet on-site option, letting
            // shedding free the space.
            std::optional<Option> forced;
            for (std::size_t j = 0; j < instance_.network.cloudlet_count(); ++j) {
                const CloudletId c{static_cast<std::int64_t>(j)};
                if (!cloudlet_up(c, t)) continue;
                const double rel = instance_.network.cloudlet(c).reliability;
                const auto replicas = vnf::onsite_replicas(row, rel, req.requirement);
                if (!replicas) continue;
                const double cost = *replicas * compute;
                if (!forced || cost < forced->cost) {
                    forced = Option{{core::Site{c, *replicas}}, cost};
                }
            }
            if (forced &&
                reserve_with_shedding(forced->sites[0].cloudlet, t, req.end(),
                                      forced->cost, req.payment, state.index, t,
                                      shed_gain_slots(state, t))) {
                chosen = std::move(forced);
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
        // to the handover point right away.
        const TimeSlot ready = slot_after(t, config_.respawn_delay_slots);
        for (SiteState& site : state.sites) {
            for (ReplicaState& replica : site.replicas) {
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
                if (t >= expiry) replica.alive = false;
            }
        }
        for (const core::Site& site : chosen->sites) {
            SiteState s;
            s.cloudlet = site.cloudlet;
            for (int k = 0; k < site.replicas; ++k) {
                ReplicaState replica;
                replica.alive = true;
                replica.reserved_from = t;
                replica.reserved_until = req.end();
                replica.expires_at = req.end();
                replica.ready_at = ready;
                s.replicas.push_back(replica);
            }
            list_holder(instance_, holders_[site.cloudlet.index()], state.index);
            fresh.push_back(std::move(s));
        }
        // Old (expiring) sites stay in place until they lapse; the new
        // sites are appended after them, and the serving scan prefers the
        // first ready site, so service hands over seamlessly.
        for (SiteState& s : fresh) state.sites.push_back(std::move(s));
        state.recover_retries = 0;
        ++report_.readmissions;
    }

    void account(RequestState& state, TimeSlot t) {
        ++report_.request_slots;
        ++state.window_slots;

        const ServingReplica now = serving(state, t);
        if (now.site >= 0) {
            ++report_.served_slots;
            ++state.served;
            const CloudletId c = state.sites[static_cast<std::size_t>(now.site)].cloudlet;
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
        std::erase_if(active_, [&](std::size_t i) {
            const workload::Request& req = instance_.requests[i];
            if (req.end() != t + 1) return false;
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
            return true;
        });
    }

    const core::Instance& instance_;
    const std::vector<core::Decision>& decisions_;
    const RecoveryConfig& config_;
    const std::vector<CloudletId>& zero_dual_order_;
    edge::ResourceLedger ledger_;
    std::vector<TimeSlot> down_until_;  ///< per cloudlet; up iff t >= down_until
    std::vector<RequestState> states_;  ///< parallel to decisions
    std::vector<std::vector<std::size_t>> holders_;  ///< see Base::holders
    std::vector<std::size_t> active_;   ///< admitted requests covering the slot
    RecoveryReport report_;
    // Scratch reused across calls (contents are per call).
    std::vector<std::size_t> victims_;
    std::vector<double> freed_;
    std::vector<std::size_t> chosen_;
    std::vector<CloudletId> candidates_;
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
