// Package leaktest is the run-time goroutine-lifecycle check of the
// packages that own long-lived work: a TestMain that calls Main fails the
// package when a goroutine running this module's code is still alive
// after the last test returned. Every server, store, runner and cluster
// node a test starts must therefore be stopped and joined by that test —
// a must-check on the code that ran, where a static analysis can only
// show that a way to stop exists.
package leaktest

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// Main runs the package's tests and exits non-zero if they passed but
// left goroutines behind. One that is on its way out gets a second
// (50 × 20 ms) to finish.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		leaked := stillRunning()
		for i := 0; i < 50 && len(leaked) > 0; i++ {
			time.Sleep(20 * time.Millisecond)
			leaked = stillRunning()
		}
		if len(leaked) > 0 {
			fmt.Fprintln(os.Stderr, "leaktest: goroutines outlived the tests:")
			for _, stack := range leaked {
				fmt.Fprintf(os.Stderr, "\n%s\n", stack)
			}
			code = 1
		}
	}
	os.Exit(code)
}

var creatorID = regexp.MustCompile(` in goroutine \d+`)

// stillRunning returns the distinct stacks, each headed by how many
// goroutines share it, of every goroutine but the caller's that has a
// frame in, or was started from, one of this module's internal packages.
func stillRunning() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	count := make(map[string]int)
	// The first stanza is the calling goroutine: TestMain itself.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if !strings.Contains(g, "subdex/internal/") {
			continue
		}
		// Drop what differs between goroutines on one code path: the header
		// ("goroutine 12 [sleep]:") and the creator's id.
		_, stack, _ := strings.Cut(g, "\n")
		count[strings.TrimSpace(creatorID.ReplaceAllString(stack, ""))]++
	}
	out := make([]string, 0, len(count))
	for stack, n := range count {
		out = append(out, fmt.Sprintf("%d goroutine(s):\n%s", n, stack))
	}
	sort.Strings(out)
	return out
}
