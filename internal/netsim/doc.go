// Package netsim is the repository's Mininet substitute: a deterministic
// virtual-time network simulator with hosts, SDN switches, delayed links,
// a reactive controller, and ICMP-style echo traffic. It reproduces the
// observable that the paper's attack depends on — the round-trip-time gap
// between a flow whose rule is cached and one that needs a controller
// round trip — with latency distributions calibrated to the paper's
// measurements (§VI-A).
//
// Fleet is the engine: a topology compiled into dense arrays and
// partitioned across shards, with identical results at every shard
// count. The paper's single-switch setup is a one-shard fleet whose
// ingress switch runs the reactive policy (AttachEvaluationHosts).
package netsim
