package sched

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWorkerSurvivesPanic verifies a panicking run callback loses only its
// item: the recovered value reaches OnPanic with a stack, and the same
// worker pool keeps serving subsequent submissions.
func TestWorkerSurvivesPanic(t *testing.T) {
	var mu sync.Mutex
	var panics []any
	var stacks [][]byte
	ran := make(chan string, 8)

	s := New(Config{
		Workers: 1,
		OnPanic: func(payload, recovered any, stack []byte) {
			mu.Lock()
			panics = append(panics, recovered)
			stacks = append(stacks, stack)
			mu.Unlock()
			ran <- "panicked:" + payload.(string)
		},
	})
	s.Start(func(payload any) {
		p := payload.(string)
		if strings.HasPrefix(p, "boom") {
			panic("callback bug: " + p)
		}
		ran <- p
	})
	defer s.Close()

	for _, p := range []string{"boom-1", "ok-1", "boom-2", "ok-2"} {
		if _, ok := s.Submit("c", Interactive, p); !ok {
			t.Fatalf("Submit(%q) rejected", p)
		}
	}

	got := map[string]bool{}
	for i := 0; i < 4; i++ {
		select {
		case p := <-ran:
			got[p] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("worker stopped serving after a panic; saw %v", got)
		}
	}
	for _, want := range []string{"ok-1", "ok-2", "panicked:boom-1", "panicked:boom-2"} {
		if !got[want] {
			t.Errorf("missing %q in %v", want, got)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(panics) != 2 {
		t.Fatalf("OnPanic called %d times, want 2", len(panics))
	}
	for i, st := range stacks {
		if len(st) == 0 {
			t.Errorf("panic %d: empty stack", i)
		}
	}
}

// TestWorkerSurvivesPanicWithoutHook pins the no-hook behavior: the panic is
// discarded but the worker still survives.
func TestWorkerSurvivesPanicWithoutHook(t *testing.T) {
	ran := make(chan string, 2)
	s := New(Config{Workers: 1})
	s.Start(func(payload any) {
		if payload.(string) == "boom" {
			panic("dropped")
		}
		ran <- payload.(string)
	})
	defer s.Close()

	if _, ok := s.Submit("c", Interactive, "boom"); !ok {
		t.Fatal("Submit rejected")
	}
	if _, ok := s.Submit("c", Interactive, "after"); !ok {
		t.Fatal("Submit rejected")
	}
	select {
	case p := <-ran:
		if p != "after" {
			t.Fatalf("ran %q, want %q", p, "after")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not survive the unhooked panic")
	}
}
