// Behavioral tests for the crash-safe AdmissionController: equivalence
// with the bare online scheduler, durable restart (WAL replay and
// snapshot), idempotent resubmission, the overload guard's shedding
// policy, and a soak that drives one controller from three threads.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/onsite_primal_dual.hpp"
#include "helpers.hpp"
#include "serve/admission_controller.hpp"
#include "serve/faults/faulty_vfs.hpp"

namespace vnfr::serve {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::random_instance;
using vnfr::testing::small_instance;

/// Creates (or wipes) a scratch state directory under the test temp root.
std::string fresh_dir(const std::string& name) {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/// A deterministic stream: type-0 requests with varied windows and
/// payments, some priced to be rejected.
std::vector<workload::Request> sample_stream(std::size_t n, TimeSlot horizon) {
    std::vector<workload::Request> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<std::int64_t>(i);
        // Non-decreasing arrivals (Instance::validate requires it), windows
        // always inside the horizon.
        const TimeSlot arrival =
            static_cast<TimeSlot>((i * static_cast<std::size_t>(horizon - 3)) / n);
        const TimeSlot duration = 1 + static_cast<TimeSlot>(i % 3);
        const double payment = 1.0 + static_cast<double>((i * 7) % 13);
        reqs.push_back(make_request(id, 0, 0.90, arrival, duration, payment));
    }
    return reqs;
}

core::Instance controller_instance(std::size_t n_requests) {
    return small_instance({0.98, 0.97}, 6.0, 8, sample_stream(n_requests, 8));
}

ServeConfig config_for(const std::string& dir, std::size_t checkpoint_every = 64,
                       std::size_t queue_capacity = 256) {
    ServeConfig cfg;
    cfg.data_dir = dir;
    cfg.checkpoint_every = checkpoint_every;
    cfg.queue_capacity = queue_capacity;
    return cfg;
}

/// Submits the whole trace in order and drains after every submit.
void run_trace(AdmissionController& ctl, const std::vector<workload::Request>& reqs) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        ctl.submit(i, reqs[i]);
        ctl.drain();
    }
}

TEST(ServeController, MatchesBareSchedulerWhenNothingSheds) {
    const core::Instance inst = controller_instance(30);

    core::OnsitePrimalDual bare(inst);
    const core::ScheduleResult expected = core::run_online(inst, bare);

    AdmissionController ctl(inst, core::Scheme::kOnsite,
                            config_for(fresh_dir("serve_equiv"), 8));
    std::vector<ProcessedOutcome> outcomes;
    for (std::size_t i = 0; i < inst.requests.size(); ++i) {
        EXPECT_EQ(ctl.submit(i, inst.requests[i]), SubmitResult::kQueued);
        for (ProcessedOutcome& o : ctl.drain()) outcomes.push_back(std::move(o));
    }

    ASSERT_EQ(outcomes.size(), expected.decisions.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const core::Decision& got = outcomes[i].decision;
        const core::Decision& want = expected.decisions[i];
        EXPECT_EQ(got.admitted, want.admitted) << "request " << i;
        EXPECT_EQ(got.reject_reason, want.reject_reason) << "request " << i;
        if (want.admitted) {
            ASSERT_EQ(got.placement.sites.size(), want.placement.sites.size());
            for (std::size_t s = 0; s < want.placement.sites.size(); ++s) {
                EXPECT_EQ(got.placement.sites[s].cloudlet,
                          want.placement.sites[s].cloudlet);
                EXPECT_EQ(got.placement.sites[s].replicas,
                          want.placement.sites[s].replicas);
            }
        }
    }
    EXPECT_EQ(ctl.metrics().revenue, expected.revenue);  // bit-equal
    EXPECT_EQ(ctl.metrics().admitted, expected.admitted);
    EXPECT_EQ(ctl.metrics().shed, 0u);
}

TEST(ServeController, RestartFromWalReplayIsBitIdentical) {
    const core::Instance inst = controller_instance(20);
    const std::string dir = fresh_dir("serve_walreplay");

    // checkpoint_every larger than the trace: everything lives in wal-0.
    std::optional<AdmissionController> ctl(std::in_place, inst,
                                           core::Scheme::kOnsite,
                                           config_for(dir, 1000));
    run_trace(*ctl, inst.requests);
    const std::uint64_t digest = ctl->state_digest();
    const ServeMetrics metrics = ctl->metrics();
    EXPECT_EQ(ctl->wal_generation(), 0u);
    ctl.reset();  // "crash" without a checkpoint

    AdmissionController revived(inst, core::Scheme::kOnsite, config_for(dir, 1000));
    EXPECT_EQ(revived.state_digest(), digest);
    EXPECT_EQ(revived.metrics().processed, metrics.processed);
    EXPECT_EQ(revived.metrics().revenue, metrics.revenue);
    EXPECT_EQ(revived.admitted_records().size(), metrics.admitted);
    EXPECT_EQ(revived.resume_cursor(), inst.requests.size());
}

TEST(ServeController, RestartFromSnapshotIsBitIdentical) {
    const core::Instance inst = controller_instance(20);
    const std::string dir = fresh_dir("serve_snaprestart");

    std::optional<AdmissionController> ctl(std::in_place, inst,
                                           core::Scheme::kOnsite, config_for(dir));
    run_trace(*ctl, inst.requests);
    ctl->checkpoint();
    const std::uint64_t digest = ctl->state_digest();
    const std::uint64_t generation = ctl->wal_generation();
    EXPECT_GE(generation, 1u);
    ctl.reset();

    AdmissionController revived(inst, core::Scheme::kOnsite, config_for(dir));
    EXPECT_EQ(revived.state_digest(), digest);
    EXPECT_EQ(revived.wal_generation(), generation);
    EXPECT_EQ(revived.wal_records(), 0u);  // fresh generation after snapshot
}

TEST(ServeController, RecoveredControllerContinuesLikeUninterrupted) {
    const core::Instance inst = controller_instance(24);
    const std::string baseline_dir = fresh_dir("serve_cont_base");
    const std::string crash_dir = fresh_dir("serve_cont_crash");

    AdmissionController baseline(inst, core::Scheme::kOnsite,
                                 config_for(baseline_dir, 5));
    run_trace(baseline, inst.requests);

    // Crashed run: process half, drop the controller, revive, finish.
    std::optional<AdmissionController> ctl(std::in_place, inst,
                                           core::Scheme::kOnsite,
                                           config_for(crash_dir, 5));
    for (std::size_t i = 0; i < 12; ++i) {
        ctl->submit(i, inst.requests[i]);
        ctl->drain();
    }
    ctl.reset();
    AdmissionController revived(inst, core::Scheme::kOnsite, config_for(crash_dir, 5));
    for (std::size_t i = revived.resume_cursor(); i < inst.requests.size(); ++i) {
        revived.submit(i, inst.requests[i]);
        revived.drain();
    }

    EXPECT_EQ(revived.state_digest(), baseline.state_digest());
    EXPECT_EQ(revived.metrics().revenue, baseline.metrics().revenue);
}

TEST(ServeController, ResubmittingCoveredSeqsIsIdempotent) {
    const core::Instance inst = controller_instance(12);
    AdmissionController ctl(inst, core::Scheme::kOnsite,
                            config_for(fresh_dir("serve_idem")));
    run_trace(ctl, inst.requests);
    const std::uint64_t digest = ctl.state_digest();
    const ServeMetrics metrics = ctl.metrics();

    // A driver replaying its whole input after a crash must not change
    // anything: every seq is covered.
    for (std::size_t i = 0; i < inst.requests.size(); ++i) {
        EXPECT_EQ(ctl.submit(i, inst.requests[i]), SubmitResult::kAlreadyCovered);
    }
    ctl.drain();
    EXPECT_EQ(ctl.state_digest(), digest);
    EXPECT_EQ(ctl.metrics().processed, metrics.processed);
    EXPECT_EQ(ctl.metrics().admitted, metrics.admitted);
    EXPECT_EQ(ctl.admitted_records().size(), metrics.admitted);
}

TEST(ServeController, ShedsLowestPaymentQueuedRequest) {
    const core::Instance inst = controller_instance(0);
    AdmissionController ctl(inst, core::Scheme::kOnsite,
                            config_for(fresh_dir("serve_shed"), 64, 2));

    EXPECT_EQ(ctl.submit(0, make_request(0, 0, 0.9, 0, 1, 5.0)), SubmitResult::kQueued);
    EXPECT_EQ(ctl.submit(1, make_request(1, 0, 0.9, 0, 1, 1.0)), SubmitResult::kQueued);
    // Queue full; the cheapest of {5, 1, incoming 9} is queued seq 1.
    EXPECT_EQ(ctl.submit(2, make_request(2, 0, 0.9, 0, 1, 9.0)),
              SubmitResult::kShedQueued);
    EXPECT_EQ(ctl.metrics().shed, 1u);
    EXPECT_EQ(ctl.metrics().shed_revenue, 1.0);
    EXPECT_TRUE(ctl.is_covered(1));  // shed outcome is durable

    // Incoming is now the cheapest: it sheds itself.
    EXPECT_EQ(ctl.submit(3, make_request(3, 0, 0.9, 0, 1, 0.5)),
              SubmitResult::kShedIncoming);
    EXPECT_EQ(ctl.metrics().shed, 2u);
    EXPECT_EQ(ctl.metrics().shed_revenue, 1.5);

    ctl.drain();
    EXPECT_EQ(ctl.metrics().processed, 2u);  // seqs 0 and 2 decided
    EXPECT_EQ(ctl.submit(1, make_request(1, 0, 0.9, 0, 1, 1.0)),
              SubmitResult::kAlreadyCovered);
    EXPECT_EQ(ctl.resume_cursor(), 4u);
}

TEST(ServeController, PaymentTiePrefersKeepingTheOlderRequest) {
    const core::Instance inst = controller_instance(0);
    AdmissionController ctl(inst, core::Scheme::kOnsite,
                            config_for(fresh_dir("serve_tie"), 64, 1));
    EXPECT_EQ(ctl.submit(0, make_request(0, 0, 0.9, 0, 1, 5.0)), SubmitResult::kQueued);
    EXPECT_EQ(ctl.submit(1, make_request(1, 0, 0.9, 0, 1, 5.0)),
              SubmitResult::kShedIncoming);
    EXPECT_FALSE(ctl.is_covered(0));
    EXPECT_TRUE(ctl.is_covered(1));
}

TEST(ServeController, OutOfOrderUncoveredSubmitViolatesContract) {
    const core::Instance inst = controller_instance(0);
    AdmissionController ctl(inst, core::Scheme::kOnsite,
                            config_for(fresh_dir("serve_order")));
    EXPECT_EQ(ctl.submit(5, make_request(5, 0, 0.9, 0, 1, 2.0)), SubmitResult::kQueued);
    EXPECT_THROW(ctl.submit(3, make_request(3, 0, 0.9, 0, 1, 2.0)),
                 common::ContractViolation);
}

TEST(ServeController, SubmitRejectsAnInvalidRequestBeforeQueueing) {
    // controller_instance: horizon 8, VNF types 0 and 1.
    const core::Instance inst = controller_instance(0);
    AdmissionController ctl(inst, core::Scheme::kOnsite,
                            config_for(fresh_dir("serve_submit_validates")));
    const std::vector<workload::Request> invalid = {
        make_request(0, 0, 1.5, 0, 1, 5.0),                                       // R > 1
        make_request(0, 0, std::numeric_limits<double>::quiet_NaN(), 0, 1, 5.0),  // R NaN
        make_request(0, 7, 0.9, 0, 1, 5.0),  // unknown VNF type
        make_request(0, 0, 0.9, 6, 4, 5.0),  // window ends past the horizon
    };
    for (const workload::Request& r : invalid) {
        EXPECT_THROW(ctl.submit(0, r), std::invalid_argument);
        EXPECT_EQ(ctl.queue_size(), 0u);
        EXPECT_FALSE(ctl.is_covered(0));
    }
    // The stream goes on: the next valid request queues and pumps.
    EXPECT_EQ(ctl.submit(0, make_request(0, 0, 0.9, 0, 1, 5.0)), SubmitResult::kQueued);
    EXPECT_EQ(ctl.pump(1).size(), 1u);
    EXPECT_EQ(ctl.metrics().processed, 1u);
    EXPECT_EQ(ctl.queue_size(), 0u);
}

TEST(ServeController, RejectedSubmitLeavesAGroupCommitBatchUntouched) {
    // With group_commit = 2, an invalid request queued behind a valid one
    // used to fail every pump after the valid one was decided in it.
    const core::Instance inst = controller_instance(0);
    const workload::Request valid = make_request(0, 0, 0.9, 0, 1, 5.0);
    ServeConfig only_valid_cfg = config_for(fresh_dir("serve_group_only_valid"));
    only_valid_cfg.group_commit = 2;
    AdmissionController only_valid(inst, core::Scheme::kOnsite, only_valid_cfg);
    only_valid.submit(0, valid);
    only_valid.drain();

    ServeConfig cfg = config_for(fresh_dir("serve_group_rejected"));
    cfg.group_commit = 2;
    AdmissionController ctl(inst, core::Scheme::kOnsite, cfg);
    EXPECT_EQ(ctl.submit(0, valid), SubmitResult::kQueued);
    EXPECT_THROW(ctl.submit(1, make_request(1, 0, 1.5, 0, 1, 5.0)), std::invalid_argument);
    EXPECT_EQ(ctl.queue_size(), 1u);
    EXPECT_NO_THROW(ctl.drain());
    EXPECT_EQ(ctl.metrics().processed, 1u);
    EXPECT_EQ(ctl.state_digest(), only_valid.state_digest());
}

TEST(ServeController, RefusesStateFromADifferentScheme) {
    const core::Instance inst = controller_instance(8);
    const std::string dir = fresh_dir("serve_scheme_mix");
    {
        AdmissionController ctl(inst, core::Scheme::kOnsite, config_for(dir));
        run_trace(ctl, inst.requests);
        ctl.checkpoint();
    }
    EXPECT_THROW(AdmissionController(inst, core::Scheme::kOffsite, config_for(dir)),
                 CorruptStateError);
}

TEST(ServeController, RejectsInvalidConfig) {
    const core::Instance inst = controller_instance(0);
    ServeConfig no_dir;
    no_dir.data_dir = fresh_dir("serve_cfg") + "/does-not-exist";
    EXPECT_THROW(AdmissionController(inst, core::Scheme::kOnsite, no_dir),
                 std::invalid_argument);
    EXPECT_THROW(AdmissionController(inst, core::Scheme::kOnsite,
                                     config_for(fresh_dir("serve_cfg0"), 0)),
                 std::invalid_argument);
    EXPECT_THROW(AdmissionController(inst, core::Scheme::kOnsite,
                                     config_for(fresh_dir("serve_cfg1"), 64, 0)),
                 std::invalid_argument);
}

TEST(ServeController, CheckpointRotatesAndRemovesOldGenerations) {
    const core::Instance inst = controller_instance(20);
    const std::string dir = fresh_dir("serve_rotate");
    AdmissionController ctl(inst, core::Scheme::kOnsite, config_for(dir, 4));
    run_trace(ctl, inst.requests);
    EXPECT_GE(ctl.wal_generation(), 4u);  // 20 records at cadence 4
    // Exactly one WAL file remains: the current generation.
    std::size_t wal_files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("wal-")) {
            ++wal_files;
            EXPECT_EQ(name, "wal-" + std::to_string(ctl.wal_generation()) + ".log");
        }
    }
    EXPECT_EQ(wal_files, 1u);
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) / "snapshot.bin"));
}

TEST(ServeController, CrashInjectionFiresAfterExactlyNAppends) {
    // Group 1 and no checkpoint in reach: every decided request costs one
    // write and one fdatasync. A fault-free run locates record 3's
    // fdatasync; the cut there skips it. A process crash keeps the
    // written record in the page cache, a clean power cut drops it.
    const core::Instance inst = controller_instance(10);
    const auto drive = [&](AdmissionController& ctl, std::size_t& submitted,
                           std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
            ctl.submit(i, inst.requests[i]);
            ++submitted;
            ctl.drain();
        }
    };
    std::uint64_t third_sync = 0;
    {
        FaultyVfs disk;
        ServeConfig cfg = config_for("/disk", 1000);
        cfg.vfs = &disk;
        AdmissionController ctl(inst, core::Scheme::kOnsite, cfg);
        std::size_t submitted = 0;
        drive(ctl, submitted, 3);
        third_sync = disk.op_count();
    }
    for (const auto& [kind, recovered] :
         {std::pair{CutKind::kProcessCrash, 3u}, std::pair{CutKind::kPowerCutClean, 2u}}) {
        SCOPED_TRACE(cut_kind_name(kind));
        DiskFaultPlan plan;
        plan.cut_at_op = third_sync;
        plan.cut_kind = kind;
        FaultyVfs disk(plan);
        ServeConfig cfg = config_for("/disk", 1000);
        cfg.vfs = &disk;
        std::size_t submitted = 0;
        try {
            AdmissionController ctl(inst, core::Scheme::kOnsite, cfg);
            drive(ctl, submitted, inst.requests.size());
            FAIL() << "expected CrashInjected";
        } catch (const CrashInjected& crash) {
            EXPECT_EQ(crash.kind(), kind);
            EXPECT_EQ(crash.op_index(), third_sync);
            EXPECT_EQ(crash.op(), "fdatasync");
            EXPECT_EQ(crash.path(), "/disk/wal-0.log");
            EXPECT_EQ(submitted, 3u);  // one WAL record per decided request
        }

        AdmissionController revived(inst, core::Scheme::kOnsite, cfg);
        EXPECT_EQ(revived.metrics().processed, recovered);
        EXPECT_EQ(revived.resume_cursor(), recovered);
    }
}

// The serve path's concurrent shape: one thread submits in seq order,
// one pumps, and one rotates checkpoints, against a queue small enough to
// shed. The CI TSan job runs this (its filter matches "Serve"). Which
// requests shed depends on timing, so the invariants are conservation
// and a bit-identical restart rather than a fixed digest.
TEST(ServeController, SubmitPumpAndCheckpointThreadsRaceCleanly) {
    common::Rng rng(0x50AC);
    const core::Instance inst = random_instance(rng, 600, 4, 24);
    constexpr std::size_t kQueueCapacity = 16;
    ServeConfig cfg = config_for(fresh_dir("serve_soak"), 16, kQueueCapacity);
    cfg.group_commit = 8;
    const std::size_t offered = inst.requests.size();
    std::uint64_t digest_before = 0;
    {
        AdmissionController ctl(inst, core::Scheme::kOffsite, cfg);
        std::atomic<std::size_t> submitted{0};
        std::atomic<bool> done{false};
        std::thread pumper([&] {
            // Let the submitter overfill the queue once so shedding is
            // certain; from then on the two race freely.
            while (submitted.load(std::memory_order_acquire) < 2 * kQueueCapacity) {
                std::this_thread::yield();
            }
            while (!done.load(std::memory_order_acquire) || ctl.queue_size() > 0) {
                if (ctl.pump(8).empty()) std::this_thread::yield();
            }
        });
        std::thread checkpointer([&] {
            while (!done.load(std::memory_order_acquire)) {
                ctl.checkpoint();
                std::this_thread::yield();
            }
        });
        for (std::size_t i = 0; i < offered; ++i) {
            ctl.submit(i, inst.requests[i]);
            submitted.store(i + 1, std::memory_order_release);
        }
        done.store(true, std::memory_order_release);
        pumper.join();
        checkpointer.join();

        // Conservation: every request either decided or shed, exactly once.
        const ServeMetrics m = ctl.metrics();
        EXPECT_EQ(m.processed + m.shed, offered);
        EXPECT_GT(m.shed, 0u);
        EXPECT_EQ(ctl.resume_cursor(), offered);
        digest_before = ctl.state_digest();
    }
    AdmissionController restarted(inst, core::Scheme::kOffsite, cfg);
    EXPECT_EQ(restarted.state_digest(), digest_before);
}

}  // namespace
}  // namespace vnfr::serve
