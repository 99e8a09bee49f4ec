package server

import (
	"context"
	"fmt"
	"log/slog"
)

// discardHandler drops everything (the default when Config.Logger is
// unset).  Implemented locally so the module keeps building on the go.mod
// minimum (slog.DiscardHandler is newer).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// logf writes one printf-style line to Config.Logger at info level.  The
// store's Options.Logf is this too, so store and server share one sink.
func (s *Server) logf(format string, args ...any) {
	s.cfg.Logger.Info(fmt.Sprintf(format, args...))
}

// jobLogger returns the request-scoped logger for one job: every line
// carries the trace ID, job and sweep identity, tenant and class, so a
// single grep over trace_id reconstructs the job's whole story.  Safe to
// call with the server mutex held (handlers write to their own sink).
func (s *Server) jobLogger(j *Job) *slog.Logger {
	return s.cfg.Logger.With(
		"trace_id", j.trace.id,
		"job", j.id,
		"sweep", j.key,
		"client", j.request.Client,
		"class", j.class.String(),
	)
}
