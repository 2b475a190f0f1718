package experiments

import "testing"

func TestW1WireProtocolV2(t *testing.T) {
	// 2 MiB blob: the head-of-line row compares worst probe latency
	// against the time the link needs to serialize the bulk reply
	// (~250 ms at 8 MB/s), which must dominate scheduler jitter when the
	// whole suite runs under -race.
	res, err := RunW1(400, 2<<20)
	checkResult(t, res, err)
}
