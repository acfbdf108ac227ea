pub mod controller;
pub mod crash;
pub mod fullstack;
pub mod service;
