// Package leakcheck fails a test binary that leaves goroutines running:
// call Main from a package's TestMain. It uses the standard library only.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle is how long goroutines get to finish after the last test.
const settle = 5 * time.Second

// Main runs the tests, then waits up to settle for the goroutine count to
// return to its value before the run. If it does not, it prints every
// goroutine's stack and exits non-zero.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if after, ok := wait(before); !ok {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines before the tests, %d after %v:\n\n%s\n",
				before, after, settle, buf)
			code = 1
		}
	}
	os.Exit(code)
}

func wait(before int) (int, bool) {
	deadline := time.Now().Add(settle)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(10 * time.Millisecond)
	}
}
