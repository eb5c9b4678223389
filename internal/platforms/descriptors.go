// Package platforms ties the repository together: it holds the registry
// of graph-processing platforms behind the paper's Table 1, the
// paper-scale calibration of the two simulated platforms (Giraph-like and
// PowerGraph-like), and the harness that runs a (platform, algorithm,
// dataset) job under the complete Granula pipeline — modeling,
// monitoring, archiving — returning an analyzed archive job.
package platforms

import (
	"fmt"
	"strings"
)

// descriptor is one row of the paper's Table 1: the high-level
// characteristics of a graph-processing platform.
type descriptor struct {
	Name             string
	Vendor           string
	Version          string
	Language         string
	Distributed      bool
	Provisioning     string
	ProgrammingModel string
	DataFormat       string
	FileSystem       string
	// Simulated marks platforms with a full simulation in this repository.
	Simulated bool
}

// registry returns the seven platforms of Table 1, in the paper's order.
// Giraph and PowerGraph (bold in the paper) are the ones this repository
// simulates end to end.
func registry() []descriptor {
	return []descriptor{
		{Name: "Giraph", Vendor: "Apache", Version: "1.2.0", Language: "Java", Distributed: true,
			Provisioning: "Yarn", ProgrammingModel: "Pregel", DataFormat: "VertexStore", FileSystem: "HDFS", Simulated: true},
		{Name: "PowerGraph", Vendor: "CMU", Version: "2.2", Language: "C++", Distributed: true,
			Provisioning: "OpenMPI", ProgrammingModel: "GAS", DataFormat: "Edge-based", FileSystem: "local/shared", Simulated: true},
		{Name: "GraphMat", Vendor: "Intel", Version: "-", Language: "C++", Distributed: true,
			Provisioning: "Intel-MPI", ProgrammingModel: "SpMV", DataFormat: "SpMV", FileSystem: "local/shared"},
		{Name: "PGX.D", Vendor: "Oracle", Version: "-", Language: "C++", Distributed: true,
			Provisioning: "Native, Slurm", ProgrammingModel: "Push-pull", DataFormat: "CSR", FileSystem: "local/shared"},
		{Name: "OpenG", Vendor: "Georgia Tech", Version: "-", Language: "C++/CUDA", Distributed: false,
			Provisioning: "Native", ProgrammingModel: "CPU/GPU", DataFormat: "CSR", FileSystem: "local"},
		{Name: "TOTEM", Vendor: "UBC", Version: "-", Language: "C++/CUDA", Distributed: false,
			Provisioning: "Native", ProgrammingModel: "CPU+GPU", DataFormat: "CSR", FileSystem: "local"},
		{Name: "Hadoop", Vendor: "Apache", Version: "-", Language: "Java", Distributed: true,
			Provisioning: "Yarn", ProgrammingModel: "MapRed", DataFormat: "Out-of-core", FileSystem: "HDFS"},
	}
}

// Table1 renders the registry in the paper's Table 1 layout.
func Table1() string {
	var sb strings.Builder
	header := []string{"Name", "Vendor", "Vers.", "Lang.", "Distr.", "Provisioning", "Programming Model", "Data Format", "File Sys."}
	rows := [][]string{header}
	for _, d := range registry() {
		distr := "no"
		if d.Distributed {
			distr = "yes"
		}
		rows = append(rows, []string{
			d.Name, d.Vendor, d.Version, d.Language, distr,
			d.Provisioning, d.ProgrammingModel, d.DataFormat, d.FileSystem,
		})
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, cell)
		}
		sb.WriteString("\n")
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w + 2
			}
			sb.WriteString(strings.Repeat("-", total))
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
