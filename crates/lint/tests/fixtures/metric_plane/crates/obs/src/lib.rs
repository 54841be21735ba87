mod profile;
mod registry_names;
mod serve;
mod spantree;
