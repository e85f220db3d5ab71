#include "simmpi/program.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace metascope::simmpi {
namespace {

TEST(CommSet, WorldIsDense) {
  CommSet cs(4);
  const Communicator& w = cs.get(cs.world());
  EXPECT_EQ(w.size(), 4);
  EXPECT_EQ(w.name, "MPI_COMM_WORLD");
  for (Rank r = 0; r < 4; ++r) EXPECT_EQ(w.local_rank(r), r);
}

TEST(CommSet, SubCommunicatorLocalRanks) {
  CommSet cs(8);
  const CommId sub = cs.create("half", {1, 3, 5, 7});
  const Communicator& c = cs.get(sub);
  EXPECT_EQ(c.local_rank(3), 1);
  EXPECT_EQ(c.local_rank(0), -1);
  EXPECT_TRUE(c.contains(7));
  EXPECT_FALSE(c.contains(6));
}

TEST(CommSet, RejectsBadMembers) {
  CommSet cs(4);
  EXPECT_THROW(cs.create("bad", {0, 9}), Error);
  EXPECT_THROW(cs.create("empty", {}), Error);
  EXPECT_THROW(cs.create("dup", {0, 0, 1}), Error);
  EXPECT_THROW((void)cs.get(CommId{5}), Error);
}

TEST(ProgramBuilder, MpiRegionsPreInterned) {
  Program p(2);
  EXPECT_TRUE(p.regions.contains("MPI_Send"));
  EXPECT_TRUE(p.regions.contains("MPI_Barrier"));
  EXPECT_TRUE(p.regions.contains("MPI_Alltoall"));
}

TEST(ProgramBuilder, CursorBuildsOps) {
  ProgramBuilder b(2);
  b.on(0).enter("main").compute(0.5).send(1, 7, 100.0).exit();
  b.on(1).enter("main").recv(0, 7).exit();
  const Program p = b.take();
  ASSERT_EQ(p.ops[0].size(), 4u);
  EXPECT_EQ(p.ops[0][0].kind, OpKind::Enter);
  EXPECT_EQ(p.regions.name(p.ops[0][0].region), "main");
  EXPECT_EQ(p.ops[0][1].kind, OpKind::Compute);
  EXPECT_DOUBLE_EQ(p.ops[0][1].work, 0.5);
  EXPECT_EQ(p.ops[0][2].peer, 1);
  EXPECT_EQ(p.ops[0][2].tag, 7);
}

TEST(ProgramBuilder, RequestSlotsSequential) {
  ProgramBuilder b(2);
  auto& c0 = b.on(0);
  c0.enter("m");
  const int r1 = c0.isend(1, 0, 10.0);
  const int r2 = c0.irecv(1, 1);
  EXPECT_EQ(r1, 0);
  EXPECT_EQ(r2, 1);
  c0.wait(r1).wait(r2).exit();
  b.on(1).enter("m").recv(0, 0).send(0, 1, 5.0).exit();
  EXPECT_NO_THROW(b.take());
}

/// take() must throw an Error whose message contains `want`.
void expect_rejected(ProgramBuilder& b, const std::string& want) {
  try {
    (void)b.take();
    ADD_FAILURE() << "no error, expected " << want;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

TEST(ProgramValidate, UnbalancedEnterExit) {
  ProgramBuilder b(1);
  b.on(0).enter("main");
  expect_rejected(b, "rank 0: unbalanced Enter/Exit");
}

TEST(ProgramValidate, ExitWithoutEnter) {
  ProgramBuilder b(1);
  b.on(0).exit();
  expect_rejected(b, "rank 0: Exit without Enter");
}

TEST(ProgramValidate, UnmatchedSend) {
  ProgramBuilder b(2);
  b.on(0).send(1, 0, 8.0);
  expect_rejected(b,
                  "unmatched point-to-point: 0 -> 1 tag 0 comm 0 (balance 1)");
}

TEST(ProgramValidate, UnmatchedRecv) {
  ProgramBuilder b(2);
  b.on(1).recv(0, 0);
  expect_rejected(b,
                  "unmatched point-to-point: 0 -> 1 tag 0 comm 0 (balance -1)");
}

TEST(ProgramValidate, TagMismatchIsUnmatched) {
  ProgramBuilder b(2);
  b.on(0).send(1, 1, 8.0);
  b.on(1).recv(0, 2);
  expect_rejected(b,
                  "unmatched point-to-point: 0 -> 1 tag 1 comm 0 (balance 1)");
}

TEST(ProgramValidate, SelfSendRejected) {
  ProgramBuilder b(2);
  b.on(0).send(0, 0, 8.0);
  expect_rejected(b, "rank 0: bad send peer");
}

TEST(ProgramValidate, PeerOutOfRange) {
  ProgramBuilder b(2);
  b.on(0).send(5, 0, 8.0);
  b.on(1).recv(0, 0);
  expect_rejected(b, "rank 0: bad send peer");
}

TEST(ProgramValidate, CollectiveSequenceMismatch) {
  ProgramBuilder b(2);
  b.on(0).barrier();
  // rank 1 never calls the barrier.
  expect_rejected(b,
                  "collective sequence mismatch on MPI_COMM_WORLD: rank 0 "
                  "has 1 collectives, rank 1 has 0");
}

TEST(ProgramValidate, CollectiveKindMismatch) {
  ProgramBuilder b(2);
  b.on(0).barrier();
  b.on(1).allreduce(8.0);
  expect_rejected(b,
                  "collective sequence mismatch on MPI_COMM_WORLD: rank 0 "
                  "has 1 collectives, rank 1 has 1");
}

TEST(ProgramValidate, CollectiveOnNonMemberComm) {
  ProgramBuilder b(4);
  const CommId sub = b.comms().create("sub", {0, 1});
  b.on(2).barrier(sub);
  expect_rejected(b, "rank 2: collective on non-member communicator");
}

TEST(ProgramValidate, RootedCollectiveNeedsMemberRoot) {
  // A world rank outside the communicator, and one outside the world.
  for (const Rank root : {3, 9}) {
    ProgramBuilder b(4);
    const CommId sub = b.comms().create("sub", {0, 1});
    b.on(0).bcast(root, 8.0, sub);
    b.on(1).bcast(root, 8.0, sub);
    expect_rejected(b, "rank 0: rooted collective needs member root");
  }
}

TEST(ProgramValidate, WaitWithoutRequest) {
  ProgramBuilder b(1);
  Op op;
  op.kind = OpKind::Wait;
  op.request = 0;
  ProgramBuilder b2(1);
  b2.program().ops[0].push_back(op);
  expect_rejected(b2, "rank 0: Wait on unknown request");
}

TEST(ProgramValidate, DoubleWaitRejected) {
  ProgramBuilder b(2);
  auto& c = b.on(0);
  c.enter("m");
  const int req = c.isend(1, 0, 4.0);
  c.wait(req).wait(req).exit();
  b.on(1).enter("m").recv(0, 0).exit();
  expect_rejected(b, "rank 0: double Wait on request");
}

TEST(ProgramValidate, UnwaitedRequestRejected) {
  ProgramBuilder b(2);
  b.on(0).isend(1, 0, 4.0);
  b.on(1).recv(0, 0);
  expect_rejected(b, "rank 0: request never waited");
}

TEST(ProgramValidate, SendRecvBalances) {
  ProgramBuilder b(2);
  b.on(0).sendrecv(1, 8.0, 1, 8.0, 0);
  b.on(1).sendrecv(0, 8.0, 0, 8.0, 0);
  EXPECT_NO_THROW(b.take());
}

TEST(ProgramValidate, NegativeWorkRejected) {
  ProgramBuilder b(1);
  b.on(0).compute(-1.0);
  expect_rejected(b, "rank 0: negative work");
}

TEST(Program, TotalOpsCounts) {
  ProgramBuilder b(2);
  b.on(0).enter("m").compute(1.0).exit();
  b.on(1).enter("m").exit();
  EXPECT_EQ(b.program().total_ops(), 5u);
}

}  // namespace
}  // namespace metascope::simmpi
