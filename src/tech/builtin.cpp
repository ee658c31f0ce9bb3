// Built-in technology catalogue.
//
// Data provenance (paper Sec. 4: "Data used in the experiments is from
// commercial databases, public information, and the in-house"):
//   - defect densities & cluster parameters: paper Fig. 2 caption
//     (3nm 0.20/c10, 5nm 0.11/c10, 7nm 0.09/c10, 14nm 0.08/c10,
//      RDL 0.05/c3, silicon interposer 0.06/c6),
//   - 300 mm wafer prices: CSET "AI Chips" report (the paper's ref [3]),
//     5nm $16,988 / 7nm $9,346 / 10nm $5,992 / 14nm $3,984 / 28nm $2,971;
//     3nm, 12nm, RDL and interposer wafels are engineering estimates
//     marked (*),
//   - mask-set costs and per-mm^2 design-cost K-factors: scaled from the
//     widely cited IBS design-cost-per-node estimates,
//   - packaging descriptors (data rate / line space / pin count): paper
//     Fig. 1 (Synopsys D2D interface source),
//   - bonding yields / substrate costs: engineering estimates chosen so
//     the model reproduces the paper's packaging-share claims (see
//     docs/model.md#assumptions-and-known-deviations).
//
// Everything here can be overridden via TechLibrary setters or a JSON
// technology file; this is deliberately the only file to edit when
// recalibrating.
#include "tech/tech_library.h"

namespace chiplet::tech {

namespace {

ProcessNode logic_node(const std::string& name, double defect, double wafer_price,
                       double density, double mask_cost, double km, double kc,
                       double ip_cost, double d2d_nre) {
    ProcessNode n;
    n.name = name;
    n.defect_density_cm2 = defect;
    n.cluster_param = 10.0;
    n.wafer_price_usd = wafer_price;
    n.density_factor = density;
    n.mask_set_cost_usd = mask_cost;
    n.module_nre_per_mm2 = km;
    n.chip_nre_per_mm2 = kc;
    n.ip_fixed_cost_usd = ip_cost;
    n.d2d_nre_usd = d2d_nre;
    n.bump_cost_per_mm2 = 0.02;
    n.test_cost_per_mm2 = 0.02;
    return n;
}

}  // namespace

TechLibrary TechLibrary::builtin() {
    TechLibrary lib;

    // ---- logic nodes -------------------------------------------------------
    // IP$ covers the per-tapeout fixed costs beyond masks (IP licensing,
    // bring-up, qualification), which is why it grows steeply with node.
    //                 name    D     wafer$   dens  mask$   K_m      K_c     IP$    D2D NRE$
    lib.add_node(logic_node("3nm", 0.20, 25'000, 2.56, 45.0e6, 750e3, 450e3, 30e6, 35e6));  // (*) wafer
    lib.add_node(logic_node("5nm", 0.11, 16'988, 1.87, 30.0e6, 500e3, 300e3, 20e6, 25e6));
    lib.add_node(logic_node("7nm", 0.09, 9'346, 1.00, 15.0e6, 280e3, 170e3, 10e6, 15e6));
    lib.add_node(logic_node("10nm", 0.08, 5'992, 0.66, 6.0e6, 180e3, 110e3, 5e6, 8e6));
    lib.add_node(logic_node("12nm", 0.08, 4'300, 0.50, 3.5e6, 120e3, 75e3, 4e6, 6e6));  // (*) wafer
    lib.add_node(logic_node("14nm", 0.08, 3'984, 0.44, 4.0e6, 100e3, 60e3, 4e6, 5e6));
    lib.add_node(logic_node("28nm", 0.07, 2'971, 0.18, 1.5e6, 50e3, 30e3, 2e6, 3e6));

    // ---- interposer processes ----------------------------------------------
    {
        ProcessNode rdl;  // InFO fan-out redistribution layers (paper: D=0.05, c=3)
        rdl.name = "rdl";
        rdl.defect_density_cm2 = 0.05;
        rdl.cluster_param = 3.0;
        rdl.wafer_price_usd = 1'200;  // (*) post-fab RDL wafer
        rdl.density_factor = 0.01;    // not a logic process; never retargeted to
        rdl.mask_set_cost_usd = 0.3e6;
        lib.add_node(rdl);

        ProcessNode si;  // passive silicon interposer (paper: D=0.06, c=6)
        si.name = "si_interposer";
        si.defect_density_cm2 = 0.06;
        si.cluster_param = 6.0;
        si.wafer_price_usd = 2'300;  // (*) mature-node passive wafer with TSVs
        si.density_factor = 0.01;
        si.mask_set_cost_usd = 0.5e6;
        lib.add_node(si);
    }

    // ---- packaging technologies ----------------------------------------------
    {
        PackagingTech soc;  // single die on a plain flip-chip substrate
        soc.name = "SoC";
        soc.type = IntegrationType::soc;
        soc.substrate_cost_per_mm2 = 0.005;
        soc.substrate_layer_factor = 1.0;
        soc.package_area_factor = 4.0;
        soc.chip_bond_yield = 0.995;
        soc.substrate_bond_yield = 1.0;  // no second attach stage
        soc.bond_cost_per_chip_usd = 1.0;
        soc.package_test_cost_usd = 2.0;
        soc.package_base_cost_usd = 10.0;
        soc.package_nre_per_mm2 = 1'000.0;
        soc.package_fixed_nre_usd = 1.5e6;
        soc.d2d_area_fraction = 0.0;
        soc.max_data_rate_gbps = 112.0;  // on-substrate SerDes class
        soc.min_line_space_um = 10.0;
        soc.max_pin_count = 1'000.0;
        lib.add_packaging(soc);

        PackagingTech mcm;  // paper Fig. 1 "organic substrate"
        mcm.name = "MCM";
        mcm.type = IntegrationType::mcm;
        mcm.substrate_cost_per_mm2 = 0.005;
        mcm.substrate_layer_factor = 1.8;  // extra routing layers for D2D nets
        mcm.package_area_factor = 4.0;
        mcm.chip_bond_yield = 0.995;
        mcm.substrate_bond_yield = 1.0;
        mcm.bond_cost_per_chip_usd = 1.0;
        mcm.package_test_cost_usd = 2.0;
        mcm.package_base_cost_usd = 15.0;
        mcm.package_nre_per_mm2 = 2'000.0;
        mcm.package_fixed_nre_usd = 2.0e6;
        mcm.d2d_area_fraction = 0.10;  // paper Sec. 4.1 assumption
        mcm.max_data_rate_gbps = 112.0;
        mcm.min_line_space_um = 10.0;
        mcm.max_pin_count = 1'000.0;
        mcm.d2d_edge_gbps_per_mm = 400.0;  // (*) organic beachfront density
        lib.add_packaging(mcm);

        PackagingTech info;  // paper Fig. 1 "integrated fan-out (InFO)"
        info.name = "InFO";
        info.type = IntegrationType::info;
        info.substrate_cost_per_mm2 = 0.005;
        info.substrate_layer_factor = 1.0;  // RDL carries the D2D routing
        info.package_area_factor = 4.0;
        info.chip_bond_yield = 0.99;
        info.substrate_bond_yield = 0.99;
        info.bond_cost_per_chip_usd = 1.5;
        info.package_test_cost_usd = 2.5;
        info.package_base_cost_usd = 20.0;
        info.interposer_node = "rdl";
        info.interposer_area_factor = 1.10;
        info.package_nre_per_mm2 = 4'000.0;
        info.package_fixed_nre_usd = 3.0e6;
        info.d2d_area_fraction = 0.10;
        info.max_data_rate_gbps = 56.0;
        info.min_line_space_um = 2.0;
        info.max_pin_count = 2'500.0;
        info.d2d_edge_gbps_per_mm = 1'300.0;  // (*) fan-out RDL beachfront
        lib.add_packaging(info);

        PackagingTech d25;  // paper Fig. 1 "silicon interposer" / CoWoS
        d25.name = "2.5D";
        d25.type = IntegrationType::interposer;
        d25.substrate_cost_per_mm2 = 0.005;
        d25.substrate_layer_factor = 1.0;
        d25.package_area_factor = 4.0;
        d25.chip_bond_yield = 0.985;      // microbump attach
        d25.substrate_bond_yield = 0.98;  // interposer-to-substrate attach
        d25.bond_cost_per_chip_usd = 2.0;
        d25.package_test_cost_usd = 3.0;
        d25.package_base_cost_usd = 25.0;
        d25.interposer_node = "si_interposer";
        d25.interposer_area_factor = 1.15;
        d25.package_nre_per_mm2 = 8'000.0;
        d25.package_fixed_nre_usd = 5.0e6;
        d25.d2d_area_fraction = 0.10;
        d25.max_data_rate_gbps = 6.4;  // wide parallel, per-pin
        d25.min_line_space_um = 0.4;
        d25.max_pin_count = 4'000.0;
        d25.d2d_edge_gbps_per_mm = 4'000.0;  // (*) microbump beachfront
        lib.add_packaging(d25);

        PackagingTech active;  // 2.5D with an *active* interposer: logic in
        active = d25;          // the interposer (Stow et al., the paper's
        active.name = "2.5D-active";  // ref [12]); pricier silicon, same flow
        active.interposer_node = "28nm";
        active.package_fixed_nre_usd = 8.0e6;  // interposer now needs design
        active.package_nre_per_mm2 = 12'000.0;
        lib.add_packaging(active);

        PackagingTech d3;  // vertical stack with TSVs (extension; SoIC class)
        d3.name = "3D";
        d3.type = IntegrationType::stacked_3d;
        d3.substrate_cost_per_mm2 = 0.005;
        d3.substrate_layer_factor = 1.0;
        d3.package_area_factor = 4.0;  // applied to the stack footprint
        d3.chip_bond_yield = 0.97;     // per stacked bond interface
        d3.substrate_bond_yield = 0.99;
        d3.bond_cost_per_chip_usd = 3.0;
        d3.package_test_cost_usd = 3.0;
        d3.package_base_cost_usd = 15.0;
        d3.tsv_cost_per_mm2 = 0.04;  // (*) TSV processing per non-top die
        d3.package_nre_per_mm2 = 3'000.0;
        d3.package_fixed_nre_usd = 4.0e6;
        d3.d2d_area_fraction = 0.03;  // TSV links are far denser than PHYs
        d3.max_data_rate_gbps = 4.0;  // per-pin, massively parallel
        d3.min_line_space_um = 0.9;   // hybrid-bond pitch class
        d3.max_pin_count = 10'000.0;
        d3.d2d_edge_gbps_per_mm = 30'000.0;  // (*) vertical, not edge-limited
        lib.add_packaging(d3);
    }

    return lib;
}

}  // namespace chiplet::tech
