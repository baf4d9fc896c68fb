// Package lockblock enforces the lock discipline PR 2's per-session
// TryLock design depends on: critical sections guarded by sync.Mutex /
// sync.RWMutex must stay short and CPU-bound. A blocking operation —
// channel send/receive, select without default, sync.WaitGroup.Wait,
// sync.Cond.Wait, time.Sleep, or a network/HTTP call — executed while a
// mutex is held turns one slow peer into a server-wide stall (the exact
// class of bug the session layer's "global mu guards only the map"
// redesign removed).
//
// The analysis is a conservative intraprocedural walk, the one lockorder
// runs too: framework.ScanFlow, whose doc states the control-flow
// approximations. x.Lock() / x.RLock() (and x.TryLock(), whose success
// branch is the interesting one) mark the receiver's lock as held until
// the matching x.Unlock() / x.RUnlock() in the same statement sequence;
// an unlock inside a conditional branch does not clear the state after
// it (the fall-through path usually still holds the lock — and branches
// that unlock-and-return never reach the code after the conditional
// anyway).
//
// The network-call list is a heuristic allow/deny set over the net and
// net/http packages: request-issuing functions and methods
// (http.Get/Post/Head/PostForm, Client/Transport methods, net Dial*/
// Listen*/Lookup*, Conn/Listener I/O) plus writes to an
// http.ResponseWriter (Write/WriteHeader), which block on the client's
// receive window.
//
// In the packages listed in fileIOCriticalPkgs the check additionally
// forbids file I/O (os.WriteFile/Create/OpenFile/Rename/Remove/MkdirAll
// and the write-side os.File methods, Sync above all) while a mutex is
// held: an fsync can take tens of milliseconds, and PR 7's durable
// session layer depends on the server never holding the session or
// registry mutex across one. internal/sessionstore is deliberately NOT
// in the list — appending to the WAL under its writer mutex is that
// package's whole job (it moves the Sync itself outside the lock, a
// discipline pinned by its own tests, not by this analyzer).
//
// That exemption is a split of jurisdiction, not a blind spot: what
// those exempted writes' errors must lead to — never a 2xx, and a count
// before the answer — is internal/server's TestStoreFaultIsNeverSilent,
// and the ordering of the locks the WAL write path takes is lockorder's.
// The internal/sessionstore fixture in testdata pins the lockblock half
// (exempt writes unflagged, universal rules still enforced).
package lockblock

import (
	"go/types"
	"strings"

	"subdex/internal/analysis/framework"
)

// Analyzer is the lockblock check.
var Analyzer = &framework.Analyzer{
	Name: "lockblock",
	Doc:  "no channel ops, WaitGroup.Wait, time.Sleep, network/HTTP calls, or (in lock-latency-critical packages) file I/O while a sync.Mutex/RWMutex is held",
	Run:  run,
}

// fileIOCriticalPkgs are the package-path suffixes where file I/O under
// a held mutex is also a finding. internal/sessionstore is exempt by
// design — its WAL writes under wmu on purpose: see the package
// comment's jurisdiction note.
var fileIOCriticalPkgs = []string{"internal/server", "internal/obs", "internal/core"}

func run(pass *framework.Pass) error {
	// Every function body — declarations and literals, however nested —
	// is scanned once with a clean lock set. The known conservative miss
	// is an immediately-invoked literal, which runs inline but is scanned
	// lock-free.
	for _, fb := range framework.FuncBodies(pass) {
		framework.ScanFlow(pass.TypesInfo, fb.Body, func(ev framework.FlowEvent) {
			if len(ev.Locks) == 0 {
				return
			}
			held := ev.Locks[0] // a deterministic representative for messages
			switch ev.Kind {
			case framework.FlowSend:
				pass.Reportf(ev.Pos, "channel send while %s is held: a blocked receiver stalls the critical section", held)
			case framework.FlowRecv:
				pass.Reportf(ev.Pos, "channel receive while %s is held", held)
			case framework.FlowSelect:
				pass.Reportf(ev.Pos, "blocking select while %s is held", held)
			case framework.FlowCall:
				if msg := blockingCall(pass, ev.Callee); msg != "" {
					pass.Reportf(ev.Pos, "%s while %s is held", msg, held)
				}
			}
		})
	}
	return nil
}

// blockingCall classifies a call to fn as a forbidden blocking operation
// under a lock, returning a description or "".
func blockingCall(pass *framework.Pass, fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	recvName := framework.ReceiverTypeName(fn)

	switch pkg {
	case "sync":
		if name == "Wait" && (recvName == "WaitGroup" || recvName == "Cond") {
			return "sync." + recvName + ".Wait"
		}
	case "time":
		if recvName == "" && name == "Sleep" {
			return "time.Sleep"
		}
	case "net/http":
		switch recvName {
		case "":
			switch name {
			case "Get", "Post", "Head", "PostForm", "ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS":
				return "net/http." + name + " call"
			}
		case "Client", "Transport", "Server":
			return "net/http " + recvName + "." + name + " call"
		case "ResponseWriter":
			if name == "Write" || name == "WriteHeader" {
				return "http.ResponseWriter." + name + " (blocks on the client connection)"
			}
		}
	case "net":
		switch recvName {
		case "":
			if strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") || strings.HasPrefix(name, "Lookup") {
				return "net." + name + " call"
			}
		case "Conn", "TCPConn", "UDPConn", "UnixConn", "Listener", "TCPListener", "UnixListener", "Dialer", "Resolver":
			return "net " + recvName + "." + name + " call"
		}
	case "os":
		if !framework.PathHasSuffix(pass.Path(), fileIOCriticalPkgs...) {
			return ""
		}
		switch recvName {
		case "":
			switch name {
			case "WriteFile", "Create", "OpenFile", "Rename", "Remove", "RemoveAll", "MkdirAll", "Mkdir":
				return "os." + name + " file I/O"
			}
		case "File":
			switch name {
			case "Write", "WriteString", "WriteAt", "Sync", "Truncate":
				return "os.File." + name + " file I/O"
			}
		}
	}
	return ""
}
