// Package lib is a library package: ctxflow's signature and
// root-context rules apply in full.
package lib

import (
	"context"
	"time"
)

// StepCtx is the context-aware implementation: accepted shape.
func StepCtx(ctx context.Context, n int) error { return nil }

// Step is an XCtx compatibility shim — it may mint a root context
// because its body delegates to StepCtx.
func Step(n int) error {
	return StepCtx(context.Background(), n)
}

// StartSpan is nil-safe: its normalization is annotated, with a reason.
func StartSpan(ctx context.Context, name string) context.Context {
	if ctx == nil {
		ctx = context.Background() //subdex:ctxflow nil-safe entry point: a nil ctx carries no deadline
	}
	return ctx
}

// bareAnnotation gives no reason, which is itself a finding.
func bareAnnotation() context.Context {
	//subdex:ctxflow
	return context.Background() // want `//subdex:ctxflow needs a reason`
}

// detached mints a root context with no shim or guard in sight.
func detached() context.Context {
	return context.Background() // want `context.Background\(\) in library code`
}

// todoToo covers the TODO spelling.
func todoToo() context.Context {
	return context.TODO() // want `context.TODO\(\) in library code`
}

// notAShim calls somethingElseCtx, not notAShimCtx: the delegation
// naming must match for the exemption to apply.
func notAShim() error {
	return StepCtx(context.Background(), 1) // want `context.Background\(\) in library code`
}

// ctxSecond has the context in the wrong position.
func ctxSecond(n int, ctx context.Context) error { return nil } // want `context.Context must be the first parameter`

// renamed names the context parameter something else.
func renamed(c context.Context) error { return nil } // want `context.Context parameter must be named ctx, not c`

// blank is fine: callbacks that ignore their context use _.
func blank(_ context.Context) error { return nil }

// literals are checked too.
var handler = func(parent context.Context) { // want `must be named ctx, not parent`
	_ = parent
}

// timer is unrelated to context: no diagnostics.
func timer(d time.Duration) *time.Timer { return time.NewTimer(d) }
