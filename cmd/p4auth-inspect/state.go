package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"p4auth/internal/core"
)

// runState implements the `snapshot` and `journal` subcommands: decode
// persisted crash-safety artifacts (controller key snapshots, device
// register snapshots, write-ahead journal entries) and print them in the
// operator format. Arguments are blob files or directories (a
// statestore.File root lays keys out as plain files, so pointing the
// tool at the store directory inspects everything in it).
func runState(cmd string, paths []string, w io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("usage: p4auth-inspect %s <file-or-dir>...", cmd)
	}
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return err
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		err = filepath.Walk(p, func(fp string, fi os.FileInfo, err error) error {
			if err != nil || fi.IsDir() || strings.HasPrefix(filepath.Base(fp), ".tmp-") {
				return err
			}
			files = append(files, fp)
			return nil
		})
		if err != nil {
			return err
		}
	}
	sort.Strings(files)
	shown := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		out, err := formatState(cmd, b)
		if err != nil {
			// Inside a directory sweep, files of the other kind are
			// expected; only a direct argument must decode.
			if len(paths) == 1 && files[0] == paths[0] {
				return fmt.Errorf("%s: %w", f, err)
			}
			continue
		}
		fmt.Fprintf(w, "== %s ==\n%s", f, out)
		shown++
	}
	if shown == 0 {
		return fmt.Errorf("no %s artifacts found in %s", cmd, strings.Join(paths, " "))
	}
	return nil
}

// formatState decodes one blob according to the subcommand.
func formatState(cmd string, b []byte) (string, error) {
	switch cmd {
	case "snapshot":
		// Key and device snapshots share the subcommand; the magic in
		// the blob decides which decoder applies.
		if s, err := core.DecodeSnapshot(b); err == nil {
			return s.Dump(), nil
		}
		ds, err := core.DecodeDeviceSnapshot(b)
		if err != nil {
			return "", err
		}
		return ds.Dump(), nil
	case "journal":
		e, err := core.DecodeJournalBatch(b)
		if err != nil {
			return "", err
		}
		return e.Dump() + "\n", nil
	}
	return "", fmt.Errorf("unknown state subcommand %q", cmd)
}
