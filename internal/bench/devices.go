package bench

import (
	"fmt"

	"texid/internal/gpusim"
	"texid/internal/knn"
)

// deviceProjection (extension) runs the production pipeline configuration
// across the GPU generations the paper names (P100, V100, A100) and
// reports the end-to-end speed, the PCIe-bound hybrid streaming ceiling,
// and which resource binds. On newer parts the compute bound rises much
// faster than the PCIe bound — so the hybrid cache's streaming design,
// marginal on the P100, becomes the limiting factor, and asymmetric
// extraction (halving bytes per image) matters even more.
func (r *runner) deviceProjection() *Table {
	t := &Table{
		ID:     "Devices",
		Title:  "Pipeline projection across GPU generations (batch 1024, FP16, m=n=768)",
		Header: []string{"GPU", "Resident speed (img/s)", "PCIe bound (img/s)", "Binding resource (hybrid)"},
	}
	specs := []gpusim.DeviceSpec{
		gpusim.TeslaP100(),
		gpusim.TeslaV100(false),
		gpusim.TeslaV100(true),
		gpusim.TeslaA100(),
	}
	bytesPerImage := float64(paperM * paperD * 2)
	for _, spec := range specs {
		_, rep := phantomSearch(phantomConfig(spec, knn.RootSIFT, gpusim.FP16, 1024, paperM, paperN, paperD), 1)
		resident := 1024e6 / rep.ElapsedUS
		pcie := spec.PCIePinnedGBs * 1e9 / bytesPerImage
		binding := "compute"
		if pcie < resident {
			binding = "PCIe"
		}
		t.AddRow(spec.Name, f0(resident), f0(pcie), binding)
	}
	t.AddNote("A100 numbers are projections (no paper measurements exist); see gpusim.TeslaA100")
	t.AddNote(fmt.Sprintf("with asymmetric m=384 the PCIe bound doubles to %s img/s per link generation",
		f0(2*specs[0].PCIePinnedGBs*1e9/bytesPerImage)))
	return t
}
