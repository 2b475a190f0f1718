//go:build race

package experiments

// raceTimeoutScale widens wall-clock failure-detection timeouts when the
// race detector is compiled in: instrumentation slows the herd of
// concurrent ORB exchanges by an order of magnitude, and a timeout
// sized for uninstrumented scheduling would misread that slowdown as
// peer failure. Timeouts are policy, not a measured protocol cost, so
// widening them does not touch any experiment's byte or round numbers.
const raceTimeoutScale = 20
