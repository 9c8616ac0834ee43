module Device = Mdh_machine.Device

let gpu_baselines = [ Openacc.system; Polyhedral.ppcg; Tvm.system; Vendor.system ]

let cpu_baselines =
  [ Openmp.system; Polyhedral.pluto; Numba.system; Tvm.system; Vendor.system ]

let baselines_for (dev : Device.t) =
  match dev.Device.kind with
  | Device.Gpu -> gpu_baselines
  | Device.Cpu -> cpu_baselines

let mdh = Mdh_system.system
