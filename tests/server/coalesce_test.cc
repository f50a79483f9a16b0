#include "server/coalesce.h"

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"

// Unit tests for corrobd's request coalescer. The invariants under
// test are exactly the ones ExecuteOne's promotion loop depends on:
// follower cancellation never disturbs the leader, a leader abandon
// promotes exactly one follower, and published bytes reach every
// waiter unchanged.

namespace corrob {
namespace server {
namespace {

StopSignal NoStop() { return StopSignal(); }

/// The test payloads as the shared responses the daemon publishes.
SharedResponse Shared(std::string payload) {
  return MakeSharedResponse(FrameType::kResultResponse, std::move(payload));
}

StopSignal StopOn(const CancellationToken* token) {
  return StopSignal(token, Deadline());
}

TEST(RunCoalescerTest, FirstAttachLeadsLaterAttachesFollow) {
  RunCoalescer coalescer;
  RunCoalescer::Ticket leader = coalescer.Attach("k");
  EXPECT_EQ(leader.role(), RunCoalescer::Role::kLeader);
  RunCoalescer::Ticket follower = coalescer.Attach("k");
  EXPECT_EQ(follower.role(), RunCoalescer::Role::kFollower);
  // A different key is its own flight.
  RunCoalescer::Ticket other = coalescer.Attach("k2");
  EXPECT_EQ(other.role(), RunCoalescer::Role::kLeader);

  coalescer.Publish(leader, Shared("bytes"));
  RunCoalescer::WaitResult waited = coalescer.Wait(&follower, NoStop());
  EXPECT_EQ(waited.outcome, RunCoalescer::WaitOutcome::kGotResult);
  EXPECT_EQ(*waited.response.payload, "bytes");
  coalescer.Abandon(other);

  const RunCoalescer::Stats stats = coalescer.stats();
  EXPECT_EQ(stats.leaders, 2);
  EXPECT_EQ(stats.followers, 1);
  EXPECT_EQ(stats.shared, 1);
  EXPECT_EQ(stats.promotions, 0);
  EXPECT_EQ(stats.abandoned, 1);
}

TEST(RunCoalescerTest, PublishRetiresTheFlight) {
  // The coalescer only dedupes *concurrent* arrivals; remembering
  // results is the cache's job. After a publish the key starts fresh.
  RunCoalescer coalescer;
  RunCoalescer::Ticket first = coalescer.Attach("k");
  coalescer.Publish(first, Shared("bytes"));
  RunCoalescer::Ticket second = coalescer.Attach("k");
  EXPECT_EQ(second.role(), RunCoalescer::Role::kLeader);
  coalescer.Abandon(second);
}

TEST(RunCoalescerTest, ManyFollowersReceiveBitIdenticalPayload) {
  RunCoalescer coalescer;
  const std::string payload = "the one true payload";
  RunCoalescer::Ticket leader = coalescer.Attach("k");

  constexpr int kFollowers = 6;
  std::vector<RunCoalescer::Ticket> tickets(kFollowers);
  for (int i = 0; i < kFollowers; ++i) tickets[i] = coalescer.Attach("k");

  std::vector<std::string> received(kFollowers);
  std::vector<std::thread> threads;
  threads.reserve(kFollowers);
  for (int i = 0; i < kFollowers; ++i) {
    threads.emplace_back([&, i] {
      RunCoalescer::WaitResult waited =
          coalescer.Wait(&tickets[i], NoStop());
      EXPECT_EQ(waited.outcome, RunCoalescer::WaitOutcome::kGotResult);
      received[i] = *waited.response.payload;
    });
  }
  coalescer.Publish(leader, Shared(payload));
  for (std::thread& thread : threads) thread.join();
  for (const std::string& got : received) EXPECT_EQ(got, payload);
  EXPECT_EQ(coalescer.stats().shared, kFollowers);
}

TEST(RunCoalescerTest, AbandonWithNoWaitersRetiresTheFlight) {
  RunCoalescer coalescer;
  RunCoalescer::Ticket first = coalescer.Attach("k");
  coalescer.Abandon(first);
  RunCoalescer::Ticket second = coalescer.Attach("k");
  EXPECT_EQ(second.role(), RunCoalescer::Role::kLeader);
  coalescer.Abandon(second);
  const RunCoalescer::Stats stats = coalescer.stats();
  EXPECT_EQ(stats.abandoned, 2);
  EXPECT_EQ(stats.promotions, 0);
}

TEST(RunCoalescerTest, AbandonPromotesExactlyOneFollower) {
  RunCoalescer coalescer;
  RunCoalescer::Ticket leader = coalescer.Attach("k");
  RunCoalescer::Ticket f1 = coalescer.Attach("k");
  RunCoalescer::Ticket f2 = coalescer.Attach("k");

  std::atomic<int> promoted{0};
  std::atomic<int> got_result{0};
  const std::string payload = "rerun payload";
  const auto waiter = [&](RunCoalescer::Ticket* ticket) {
    RunCoalescer::WaitResult waited = coalescer.Wait(ticket, NoStop());
    if (waited.outcome == RunCoalescer::WaitOutcome::kPromoted) {
      // The inherited leadership comes with the settle obligation:
      // this follower re-runs and publishes for the remaining waiter.
      EXPECT_EQ(ticket->role(), RunCoalescer::Role::kLeader);
      promoted.fetch_add(1);
      coalescer.Publish(*ticket, Shared(payload));
    } else {
      EXPECT_EQ(waited.outcome, RunCoalescer::WaitOutcome::kGotResult);
      EXPECT_EQ(*waited.response.payload, payload);
      got_result.fetch_add(1);
    }
  };
  std::thread t1(waiter, &f1);
  std::thread t2(waiter, &f2);
  coalescer.Abandon(leader);
  t1.join();
  t2.join();

  EXPECT_EQ(promoted.load(), 1);
  EXPECT_EQ(got_result.load(), 1);
  const RunCoalescer::Stats stats = coalescer.stats();
  EXPECT_EQ(stats.promotions, 1);
  // The promotion counts as a fresh leadership of the same flight.
  EXPECT_EQ(stats.leaders, 2);
  EXPECT_EQ(stats.shared, 1);
}

TEST(RunCoalescerTest, CancelledFollowerDetachesWithoutDisturbingLeader) {
  RunCoalescer coalescer;
  RunCoalescer::Ticket leader = coalescer.Attach("k");
  RunCoalescer::Ticket follower = coalescer.Attach("k");

  CancellationToken token;
  token.Cancel();
  RunCoalescer::WaitResult waited =
      coalescer.Wait(&follower, StopOn(&token));
  EXPECT_EQ(waited.outcome, RunCoalescer::WaitOutcome::kCancelled);

  // The leader is untouched: it can still publish, and a fresh
  // follower attached after the cancellation still gets the bytes.
  RunCoalescer::Ticket late = coalescer.Attach("k");
  EXPECT_EQ(late.role(), RunCoalescer::Role::kFollower);
  std::thread late_waiter([&] {
    RunCoalescer::WaitResult got = coalescer.Wait(&late, NoStop());
    EXPECT_EQ(got.outcome, RunCoalescer::WaitOutcome::kGotResult);
    EXPECT_EQ(*got.response.payload, "bytes");
  });
  coalescer.Publish(leader, Shared("bytes"));
  late_waiter.join();
  EXPECT_EQ(coalescer.stats().shared, 1);
}

TEST(RunCoalescerTest, StoppedFollowerDeclinesPromotion) {
  // An orphaned flight must never be inherited by a follower whose
  // own stop already fired — it would immediately abandon and the
  // remaining waiters would ping-pong. The stop check wins.
  RunCoalescer coalescer;
  RunCoalescer::Ticket leader = coalescer.Attach("k");
  RunCoalescer::Ticket doomed = coalescer.Attach("k");
  RunCoalescer::Ticket healthy = coalescer.Attach("k");

  coalescer.Abandon(leader);  // orphaned, two waiters
  CancellationToken token;
  token.Cancel();
  RunCoalescer::WaitResult cancelled =
      coalescer.Wait(&doomed, StopOn(&token));
  EXPECT_EQ(cancelled.outcome, RunCoalescer::WaitOutcome::kCancelled);

  RunCoalescer::WaitResult waited = coalescer.Wait(&healthy, NoStop());
  EXPECT_EQ(waited.outcome, RunCoalescer::WaitOutcome::kPromoted);
  coalescer.Publish(healthy, Shared("bytes"));
  const RunCoalescer::Stats stats = coalescer.stats();
  EXPECT_EQ(stats.promotions, 1);
  EXPECT_EQ(stats.shared, 0);
}

TEST(RunCoalescerTest, LastCancelledWaiterRetiresAnOrphanedFlight) {
  RunCoalescer coalescer;
  RunCoalescer::Ticket leader = coalescer.Attach("k");
  RunCoalescer::Ticket follower = coalescer.Attach("k");
  coalescer.Abandon(leader);

  CancellationToken token;
  token.Cancel();
  RunCoalescer::WaitResult waited =
      coalescer.Wait(&follower, StopOn(&token));
  EXPECT_EQ(waited.outcome, RunCoalescer::WaitOutcome::kCancelled);

  // The orphaned flight had nobody left; it must be gone from the
  // map, so the next attach starts clean rather than inheriting a
  // leaderless husk nobody will ever publish to.
  RunCoalescer::Ticket fresh = coalescer.Attach("k");
  EXPECT_EQ(fresh.role(), RunCoalescer::Role::kLeader);
  coalescer.Abandon(fresh);
}

TEST(RunCoalescerTest, RacingAttachesAlwaysConverge) {
  // Stress the full protocol: every round, four threads race to
  // attach the same key; whoever leads (initially or by promotion)
  // publishes, and every other thread must end with the bytes.
  RunCoalescer coalescer;
  constexpr int kRounds = 50;
  constexpr int kThreads = 4;
  for (int round = 0; round < kRounds; ++round) {
    const std::string key = "k" + std::to_string(round);
    const std::string payload = "p" + std::to_string(round);
    std::atomic<int> delivered{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        RunCoalescer::Ticket ticket = coalescer.Attach(key);
        for (;;) {
          if (ticket.role() == RunCoalescer::Role::kLeader) {
            coalescer.Publish(ticket, Shared(payload));
            delivered.fetch_add(1);
            return;
          }
          RunCoalescer::WaitResult waited =
              coalescer.Wait(&ticket, NoStop());
          if (waited.outcome == RunCoalescer::WaitOutcome::kGotResult) {
            EXPECT_EQ(*waited.response.payload, payload);
            delivered.fetch_add(1);
            return;
          }
          ASSERT_EQ(waited.outcome, RunCoalescer::WaitOutcome::kPromoted);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    ASSERT_EQ(delivered.load(), kThreads) << "round " << round;
  }
}

}  // namespace
}  // namespace server
}  // namespace corrob
