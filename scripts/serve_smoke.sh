#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke check for the compile service
# (make serve-smoke).
#
# Builds noelle-serve with -race into the work directory first (so the
# daemon's start is not a cold race build racing servesmoke's dial
# window), starts it on a unix socket, drives it with
# scripts/servesmoke (cold populate, concurrent identical burst that
# must coalesce, warm re-run that must hit the resident session, mixed
# second-module traffic, stats assertions), then
# byte-diffs the daemon's report rendering against a cold
# `noelle-load -tools licm,dead` on the same module, and finally checks
# the daemon drained cleanly and its store is readable by noelle-cache.
set -euo pipefail

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"; [ -n "${daemon_pid:-}" ] && kill "$daemon_pid" 2>/dev/null || true' EXIT
sock="$workdir/noelle.sock"
cache="$workdir/cache"

echo "== build daemon (-race) =="
go build -race -o "$workdir/noelle-serve" ./cmd/noelle-serve

echo "== start daemon =="
"$workdir/noelle-serve" -listen "unix:$sock" -cache-dir "$cache" \
  -workers 2 -queue 32 -sessions 8 -metrics 2> "$workdir/daemon.log" &
daemon_pid=$!

echo "== drive traffic (scripts/servesmoke) =="
go run ./scripts/servesmoke -addr "unix:$sock" -out-dir "$workdir" \
  -daemon-pid "$daemon_pid" -daemon-log "$workdir/daemon.log"

echo "== wait for clean daemon exit =="
if ! wait "$daemon_pid"; then
  echo "FAIL: daemon exited non-zero" >&2
  cat "$workdir/daemon.log" >&2
  exit 1
fi
daemon_pid=""
cat "$workdir/daemon.log"

echo "== byte-diff daemon reports vs cold noelle-load =="
go run ./cmd/noelle-load -tools licm,dead -o /dev/null "$workdir/smoke_module.nir" \
  2> "$workdir/load_report.txt"
if ! diff -u "$workdir/load_report.txt" "$workdir/smoke_report.txt"; then
  echo "FAIL: daemon report rendering differs from cold noelle-load" >&2
  exit 1
fi

echo "== store left behind is readable =="
go run ./cmd/noelle-cache -dir "$cache" stats
go run ./cmd/noelle-cache -dir "$cache" -json stats > /dev/null

echo "OK: serve smoke passed (coalesced + warm hits asserted by servesmoke)"
