package server

import "time"

// ConfigWithKeepalive returns cfg with the SSE keepalive interval shortened,
// so tests can observe keepalive comments without waiting 15 seconds.
func ConfigWithKeepalive(cfg Config, keepalive time.Duration) Config {
	cfg.sseKeepalive = keepalive
	return cfg
}
