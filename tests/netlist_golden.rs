//! Golden pins on how the pipeline reads a netlist.
//!
//! Resynthesis and the netlist→AIG build both depend on the order in which
//! combinational cells are evaluated and on how alias chains resolve. These
//! tests pin their exact outputs on the benchmark cores, so a refactor of
//! either reading must reproduce them gate for gate and literal for literal.
//! The resynthesis digest hashes the written text, so it also covers net
//! names, which `netlist_fingerprint` leaves out.

use pdat_repro::aig::{netlist_to_aig, AigNode, AigNodeId};
use pdat_repro::cache::Fnv;
use pdat_repro::cores::{build_cortexm0, build_ibex, obfuscate, ObfuscateConfig};
use pdat_repro::netlist::{write_netlist, Netlist};
use pdat_repro::synth::resynthesize;

fn resynth_digest(nl: &Netlist) -> u64 {
    let (out, _) = resynthesize(nl);
    Fnv::new().str(&write_netlist(&out)).finish()
}

#[test]
fn resynthesis_of_the_benchmark_cores_is_pinned() {
    let ibex = build_ibex();
    assert_eq!(resynth_digest(&ibex.netlist), 6652679003883647940);
    let m0 = build_cortexm0();
    assert_eq!(resynth_digest(&m0.netlist), 13233186371071651619);
    let (obf, _) = obfuscate(&m0.netlist, &ObfuscateConfig::default());
    assert_eq!(resynth_digest(&obf), 13284080199629260733);
}

#[test]
fn ibex_aig_with_its_cutpoints_is_pinned() {
    let ibex = build_ibex();
    let na = netlist_to_aig(&ibex.netlist, &ibex.cut_fetch);
    let aig = &na.aig;
    // The node schedule: every node's kind and fanin literals, in order.
    let mut h = Fnv::new();
    for i in 0..aig.num_nodes() {
        match aig.node(AigNodeId(i as u32)) {
            AigNode::Const => h.u8(0),
            AigNode::Input => h.u8(1),
            AigNode::Latch { init, next } => h.u8(2).u8(init as u8).u32(next.code()),
            AigNode::And(a, b) => h.u8(3).u32(a.code()).u32(b.code()),
        };
    }
    // The literal every net reads, in net order.
    for (net, _) in ibex.netlist.nets() {
        h.u32(net.0)
            .u32(na.net_lit.get(&net).map_or(u32::MAX, |l| l.code()));
    }
    assert_eq!(
        (aig.num_nodes(), aig.num_ands(), h.finish()),
        (22680, 21231, 11765481626657704408)
    );
}
