//! # aipan — AI-driven Privacy policy ANnotations
//!
//! Umbrella crate for **AIPAN-RS**, a Rust reproduction of *"Analyzing
//! Corporate Privacy Policies using AI Chatbots"* (IMC 2024).
//!
//! This crate re-exports the workspace's subsystems under one roof so that
//! examples and downstream users can depend on a single crate:
//!
//! * [`taxonomy`] — the annotation taxonomy (data types, purposes, handling,
//!   rights, aspects, sectors).
//! * [`textindex`] — fold-once text engine: Aho–Corasick vocabulary
//!   automaton and fold-once document index backing matching/verification.
//! * [`html`] — HTML parsing and inscriptis-style text extraction.
//! * [`net`] — the simulated HTTP substrate with fault injection.
//! * [`webgen`] — the synthetic company universe and policy generator.
//! * [`crawler`] — the privacy-page crawler (§3.1 navigation policy).
//! * [`chatbot`] — the simulated AI-chatbot annotation engine with model
//!   profiles (GPT-4-Turbo / GPT-3.5-Turbo / Llama-3.1).
//! * [`core`] — the end-to-end pipeline and dataset types.
//! * [`analysis`] — statistics, validation, and table regeneration.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the experiment index.

#![warn(missing_docs)]

pub use aipan_analysis as analysis;
pub use aipan_chatbot as chatbot;
pub use aipan_core as core;
pub use aipan_crawler as crawler;
pub use aipan_html as html;
pub use aipan_net as net;
pub use aipan_taxonomy as taxonomy;
pub use aipan_textindex as textindex;
pub use aipan_webgen as webgen;
