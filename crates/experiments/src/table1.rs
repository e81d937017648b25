//! Table I: system specification.
//!
//! The paper's testbed is two physical servers; the simulation substitutes
//! host *profiles* whose core counts bound server capacity. This experiment
//! prints the same table shape, documenting the substitution.

use kscope_kernel::HostSpec;

use crate::report::TextTable;

/// Renders the Table I equivalent for the simulated hosts.
pub fn render() -> String {
    let amd = HostSpec::amd_epyc_7302();
    let intel = HostSpec::intel_xeon_e5_2620();
    let mut table = TextTable::new(vec!["", "AMD", "INTEL"]);
    let mut row = |label: &str, a: String, b: String| {
        table.row(vec![label.to_string(), a, b]);
    };
    row("CPU Model", amd.cpu_model.clone(), intel.cpu_model.clone());
    row("OS (Kernel)", amd.os.clone(), intel.os.clone());
    row(
        "Sockets",
        amd.sockets.to_string(),
        intel.sockets.to_string(),
    );
    row(
        "Cores/Socket",
        amd.cores_per_socket.to_string(),
        intel.cores_per_socket.to_string(),
    );
    row(
        "Threads/Core",
        amd.threads_per_core.to_string(),
        intel.threads_per_core.to_string(),
    );
    row(
        "Min/Max Frequency",
        format!("{}/{} MHz", amd.min_freq_mhz, amd.max_freq_mhz),
        format!("{}/{} MHz", intel.min_freq_mhz, intel.max_freq_mhz),
    );
    row(
        "Memory",
        format!("{} GB", amd.memory_gib),
        format!("{} GB", intel.memory_gib),
    );
    row(
        "Logical CPUs",
        amd.logical_cpus().to_string(),
        intel.logical_cpus().to_string(),
    );
    let mut out = String::from(
        "Table I — system specification (simulated host profiles;\n\
         the paper's physical testbed is substituted per DESIGN.md §5)\n\n",
    );
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn render_includes_both_hosts() {
        let text = super::render();
        assert!(text.contains("AMD EPYC 7302"));
        assert!(text.contains("Intel Xeon CPU E5-2620"));
        assert!(text.contains("Cores/Socket"));
    }
}
