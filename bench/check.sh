#!/bin/sh
# bench/ is a module of its own, so the root `go build ./... && go test
# ./...` does not see it. This is the step that does: run it beside the
# tier-1 command, from anywhere in a checkout with the root module.
set -eu
cd "$(dirname "$0")"
go vet .
go test -count=1 .
