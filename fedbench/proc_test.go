package main

import (
	"os"
	"os/exec"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a parenthesis, utime 250, stime 70.
	stat := "4242 (fed bench) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 70 0 0 20 0 9 0 100 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 320 * clockTick; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU("4242 (short) S 1 2"); err == nil {
		t.Fatal("a truncated stat line parsed")
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := "Name:\tfedbench\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseStatusHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Fatalf("peak RSS = %v MiB, want 50", got)
	}
	if _, err := parseStatusHWM("Name:\tx\n"); err == nil {
		t.Fatal("a status without VmHWM parsed")
	}
}

// The readers see a child process's own CPU and memory, not the
// parent's: a child that spins accrues CPU while the parent sleeps.
func TestProcReadersOnAChild(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperSpin")
	cmd.Env = append(os.Environ(), "FEDBENCH_SPIN=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	pid := cmd.Process.Pid
	before, err := procCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	after, err := procCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	if after-before < 100*time.Millisecond {
		t.Errorf("a spinning child used %v of CPU in 300ms", after-before)
	}
	rss, err := procPeakRSS(pid)
	if err != nil {
		t.Fatal(err)
	}
	if rss <= 0 || rss > 4096 {
		t.Errorf("child peak RSS %v MiB", rss)
	}
}

func TestHelperSpin(t *testing.T) {
	if os.Getenv("FEDBENCH_SPIN") != "1" {
		t.Skip("helper process for TestProcReadersOnAChild")
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
	}
}

func TestHostSteal(t *testing.T) {
	if _, err := os.Stat("/proc/stat"); err != nil {
		t.Skip("no /proc")
	}
	steal, total, err := hostSteal()
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || steal > total {
		t.Fatalf("steal %d of %d jiffies", steal, total)
	}
}
