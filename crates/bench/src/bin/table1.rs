//! Table I: test-case description — transport protocol and network for
//! every configuration evaluated in the paper.

use jbs_core::EngineKind;

fn main() {
    println!("TABLE I: Test Case Description");
    println!(
        "{:<20}  {:<18}  {:<12}",
        "Test Cases", "Transport Protocol", "Network"
    );
    println!("{}", "-".repeat(54));
    for kind in EngineKind::table1() {
        let proto = kind.protocol();
        // The paper lists the *transport* name, which for the plain-TCP
        // cases is "TCP/IP" rather than the network name.
        let transport = match proto {
            jbs_net::Protocol::Tcp1GigE | jbs_net::Protocol::Tcp10GigE => "TCP/IP",
            p => p.label(),
        };
        println!(
            "{:<20}  {:<18}  {:<12}",
            kind.label(),
            transport,
            proto.network().label()
        );
    }
    println!(
        "\n(Engine kinds also include \"JBS on 1GigE\", used in Fig. 7b: {})",
        EngineKind::JbsOn1GigE.label()
    );
}
