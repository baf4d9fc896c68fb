package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// failFirstStep is a Client whose first Step fails with err. Every later
// Step shows an empty display, on which a user has nothing to play and
// stops, so a walk that survives the error ends after one step.
type failFirstStep struct {
	err   error
	calls int
}

func (c *failFirstStep) Step(context.Context) (*StepView, error) {
	c.calls++
	if c.calls == 1 {
		return nil, c.err
	}
	return &StepView{Selection: "TRUE"}, nil
}

func (c *failFirstStep) Apply(context.Context, string) error            { return nil }
func (c *failFirstStep) ApplyRecommendation(context.Context, int) error { return nil }
func (c *failFirstStep) Back(context.Context) (bool, error)             { return false, nil }
func (c *failFirstStep) Close(context.Context) error                    { return nil }
func (c *failFirstStep) Summary(context.Context) (*SummaryView, error) {
	return &SummaryView{}, nil
}

// TestErrorClassification holds a user's error handling, which sdeload's
// SLO verdict is counted from: each error lands in its ErrorCounts bucket,
// and only an error of the "other" bucket ends the walk and sets Failure.
// The rest are retried, so the user steps on past them.
func TestErrorClassification(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
		want ErrorCounts
	}{
		{"409 busy", &StatusError{Code: 409, Msg: "session busy"}, ErrorCounts{Busy: 1}},
		{"429 admission", &StatusError{Code: 429, Msg: "session limit reached"}, ErrorCounts{Admission: 1}},
		{"504 timeout", &StatusError{Code: 504, Msg: "step deadline"}, ErrorCounts{Timeout: 1}},
		{"wrapped 409", fmt.Errorf("step: %w", &StatusError{Code: 409}), ErrorCounts{Busy: 1}},
		{"500 other", &StatusError{Code: 500, Msg: "wal fsync"}, ErrorCounts{Other: 1}},
		{"deadline in-process", context.DeadlineExceeded, ErrorCounts{Timeout: 1}},
		{"transport", errors.New("connection refused"), ErrorCounts{Other: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			client := &failFirstStep{err: c.err}
			u := &user{steps: 4, mix: DefaultMix(), ops: rand.New(rand.NewSource(1)), thinkRN: rand.New(rand.NewSource(2))}
			res := u.run(context.Background(), client)
			if res.Errors != c.want {
				t.Errorf("errors %+v, want %+v", res.Errors, c.want)
			}
			terminal := c.want.Other > 0
			switch {
			case terminal && (res.Failure != c.err.Error() || client.calls != 1 || res.Steps != 0):
				t.Errorf("a terminal error: Failure %q after %d step call(s) and %d step(s); want %q after 1 and 0",
					res.Failure, client.calls, res.Steps, c.err.Error())
			case !terminal && (res.Failure != "" || client.calls != 2 || res.Steps != 1):
				t.Errorf("a retried error: Failure %q after %d step call(s) and %d step(s); want none after 2 and 1",
					res.Failure, client.calls, res.Steps)
			}
		})
	}
}
