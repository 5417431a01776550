package server

import (
	"context"
	"log/slog"
)

// Structured logging. The server logs through a *slog.Logger so every
// line carries machine-readable attributes — session IDs on session
// lifecycle lines, trace IDs on request lines — and operators choose
// the rendering (gomd's -log-format text|json). Config.Logger supplies
// the logger; with none set the server is silent.

// serverLogger resolves a Config's Logger field to the logger the
// server uses.
func serverLogger(cfg Config) *slog.Logger {
	if cfg.Logger != nil {
		return cfg.Logger
	}
	return slog.New(noopHandler{})
}

// noopHandler discards everything (Config with no Logger).
type noopHandler struct{}

func (noopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (noopHandler) Handle(context.Context, slog.Record) error { return nil }
func (noopHandler) WithAttrs([]slog.Attr) slog.Handler        { return noopHandler{} }
func (noopHandler) WithGroup(string) slog.Handler             { return noopHandler{} }
