//! # gbooster-net
//!
//! The simulated wireless substrate of GBooster: channels, radio
//! power-state machines, a lightweight reliable-UDP transport, and a TCP
//! comparison model.
//!
//! Constants come from the paper (Sections IV-B, V-B) and its references:
//!
//! * WiFi 802.11n: up to 150 Mbps on the evaluation router, ≈2 W transmit
//!   power (ref \[22\]), 100 ms wake-up — 500 ms if the interface must
//!   re-associate (ref \[27\]).
//! * Bluetooth: ≈21 Mbps, under 0.1 W (ref \[26\]) — "an order of magnitude
//!   more power efficient than WiFi, but with an order of magnitude lower
//!   bandwidth".
//! * TCP: ≈40 ms inherent delayed-ACK latency (ref \[18\]), which is why
//!   the paper selects UDP with an application-layer reliability protocol
//!   (ref \[19\], UDT-style) instead.
//!
//! Modules: [`channel`] (bandwidth/latency/loss), [`iface`] (radio power
//! states), [`rudp`] (the reliable transport), [`tcp`] (comparison
//! model), [`switch`] (the dual-radio manager).
//!
//! UDP multicast (Section VI-B) has no model of its own here: the session
//! engine sends each frame's commands once on the uplink, and every live
//! replica applies the one decoded list
//! (`gbooster_core::session`, `OffloadEngine::issue_frame`).

pub mod channel;
pub mod iface;
pub mod rudp;
pub mod switch;
pub mod tcp;

pub use channel::ChannelModel;
pub use iface::{BluetoothIface, WifiIface};
pub use switch::InterfaceManager;
