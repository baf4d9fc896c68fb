package daemon

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeDrainsInFlightRequest cancels Serve's context while a request
// is inside the handler: the request still completes, and Serve returns
// nil only after it has.
func TestServeDrainsInFlightRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	entered, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, "test", addr, "", mux, 5*time.Second) }()

	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/ping"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener never came up")
		}
	}
	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			body <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body <- string(b)
	}()
	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("Serve returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if got := <-body; got != "done" {
		t.Errorf("in-flight request got %q, want \"done\"", got)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve after a clean drain: %v", err)
	}
}

// TestServeSurfacesBoundPort: a listener that cannot start ends Serve
// with its error instead of leaving a daemon that serves nothing.
func TestServeSurfacesBoundPort(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		served <- Serve(context.Background(), "test", ln.Addr().String(), "", http.NotFoundHandler(), time.Second)
	}()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("Serve on a bound port returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve on a bound port never returned")
	}
}

func TestLoadDataset(t *testing.T) {
	if _, err := LoadDataset("", "", 1, 1); err == nil {
		t.Error("neither -data nor -generate: want an error")
	}
	if _, err := LoadDataset("", "nope", 1, 1); err == nil {
		t.Error("unknown generator: want an error")
	}
	db, err := LoadDataset("", "demo", 1, 1)
	if err != nil || db.Stats().NumRatings == 0 {
		t.Errorf("demo: %v", err)
	}
}
