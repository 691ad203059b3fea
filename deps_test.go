package igpart

import (
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLibraryLinksNoNetworkStack pins the library's dependency closure:
// the partitioning library and the multilevel engine must reach neither
// net/http nor crypto/tls. Only the serving tier (internal/service,
// internal/cluster, cmd/igpartd) may. The walk reads import lists with
// go/build straight from the source trees, with no go command.
func TestLibraryLinksNoNetworkStack(t *testing.T) {
	goroot := build.Default.GOROOT
	dirOf := func(path string) string {
		if path == "igpart" {
			return "."
		}
		if rest, ok := strings.CutPrefix(path, "igpart/"); ok {
			return filepath.FromSlash(rest)
		}
		if dir := filepath.Join(goroot, "src", path); isDir(dir) {
			return dir
		}
		return filepath.Join(goroot, "src", "vendor", path)
	}
	forbidden := map[string]bool{"net/http": true, "crypto/tls": true}
	for _, root := range []string{"igpart", "igpart/internal/multilevel"} {
		// via records how each package was first reached, for the report.
		via := map[string]string{root: ""}
		queue := []string{root}
		for len(queue) > 0 {
			path := queue[0]
			queue = queue[1:]
			if forbidden[path] {
				chain := path
				for p := via[path]; p != ""; p = via[p] {
					chain = p + " -> " + chain
				}
				t.Errorf("%s reaches %s: %s", root, path, chain)
				continue
			}
			pkg, err := build.ImportDir(dirOf(path), 0)
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			if err != nil {
				t.Fatalf("import %s: %v", path, err)
			}
			for _, imp := range pkg.Imports {
				if _, seen := via[imp]; seen || imp == "C" || imp == "unsafe" {
					continue
				}
				via[imp] = path
				queue = append(queue, imp)
			}
		}
		if len(via) < 10 {
			t.Fatalf("%s: walked only %d packages; the import walk is broken", root, len(via))
		}
	}
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}
