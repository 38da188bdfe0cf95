// Package shard holds the building blocks of the sharded serving plane:
// the consistent-hash ring that assigns devices (by session token) to
// shard coordinators, and the grouped-reduction algebra that makes the
// sharded ADMM bit-identical to a single coordinator.
//
// The paper's consensus step (Eq. 23) needs only Σ(x_t + u_t) and a count
// from the whole population, so it decomposes into shard-local partial
// sums plus one tiny cross-shard reduce per ADMM iteration. Because
// floating-point addition is not associative, "the same sum" is not
// automatic: this package fixes one summation shape — per-partition
// partials folded in partition order — and every reduction in the tree
// runs through it. admm.Consensus.Step and core.FederatedInit are the
// one-partition case; the wire coordinator and a shard run the same
// synchronous round over their reduce groups (protocol.ServerConfig's
// ReduceGroups, one group by default), so a sharded run and a single
// coordinator grouped by the same partition agree bit for bit because
// they execute the same code, not because copies are kept in step.
//
// The wire half of the plane lives in internal/protocol (RunShard,
// RunAggregator, the MsgShard* kinds in internal/transport); the operator
// view is docs/SHARDING.md.
package shard
